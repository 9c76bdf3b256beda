// LstmLm: a stacked LSTM language model trained by truncated BPTT over
// fixed-length sequences — the stand-in for the paper's 2-layer LSTM-PTB.
//
// Architecture: embedding [V, E] -> num_layers x LSTM (layer 0 input E,
// deeper layers input H) -> Linear(H, V); loss is mean cross entropy over
// all N*T positions (predict token t+1 at step t). All gradients are
// computed by hand; gradient checks live in the tests.
#pragma once

#include <cstdint>

#include "nn/model.hpp"
#include "util/rng.hpp"

namespace gtopk::nn {

class LstmLm final : public TrainableModel {
public:
    LstmLm(std::int64_t vocab, std::int64_t embed_dim, std::int64_t hidden_dim,
           util::Xoshiro256& rng, int num_layers = 1);

    double train_step_gradients(const Batch& batch) override;
    double eval_loss(const Batch& batch) override;
    double eval_accuracy(const Batch& batch) override;

    std::int64_t vocab() const { return vocab_; }
    std::int64_t hidden_dim() const { return hidden_; }
    int num_layers() const { return static_cast<int>(layers_.size()); }

private:
    /// One LSTM layer's parameters (gate order i, f, g, o stacked along
    /// the first axis).
    struct LayerParams {
        std::int64_t input_dim = 0;
        Param w_ih;  // [4H, input_dim]
        Param w_hh;  // [4H, H]
        Param b;     // [4H]
    };

    /// Per-(layer, timestep) caches for BPTT.
    struct StepCache {
        std::vector<float> input;          // [N, input_dim] of this layer
        std::vector<float> i, f, g, o;     // post-activation gates, [N, H]
        std::vector<float> c, tanh_c, h;   // [N, H]
    };

    Tensor forward_sequence(const Batch& batch,
                            std::vector<std::vector<StepCache>>* caches);

    std::int64_t vocab_, embed_, hidden_;
    Param emb_;  // [V, E]
    std::vector<LayerParams> layers_;
    Param w_out_;  // [V, H]
    Param b_out_;  // [V]
};

}  // namespace gtopk::nn
