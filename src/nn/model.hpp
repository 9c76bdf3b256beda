// TrainableModel: the uniform surface the distributed trainers drive.
//
// A model exposes a flat parameter space (the m-element vector the paper's
// algorithms sparsify), a fused forward+backward step producing flat
// gradients, and evaluation helpers. Replica consistency is achieved by
// constructing every worker's model from the same seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace gtopk::nn {

/// One mini-batch. For classifiers: x is [N, ...], targets has N labels.
/// For the LSTM LM: x is [N, T] token ids stored as floats (exact for
/// vocab < 2^24), targets has N*T next-token ids.
struct Batch {
    Tensor x;
    std::vector<std::int32_t> targets;
};

class TrainableModel {
public:
    virtual ~TrainableModel() = default;

    /// Zero grads, run forward and backward on `batch`; gradients for the
    /// whole model are left in the parameter views. Returns the mean loss.
    virtual double train_step_gradients(const Batch& batch) = 0;

    /// Mean loss in eval mode (no gradient side effects).
    virtual double eval_loss(const Batch& batch) = 0;

    /// Top-1 accuracy in eval mode (per-position accuracy for the LM).
    virtual double eval_accuracy(const Batch& batch) = 0;

    /// Borrowed views over every parameter tensor (stable for the model's
    /// lifetime).
    const std::vector<ParamView>& params() const { return params_; }

    std::size_t num_params() const { return param_count(params_); }

    std::vector<float> flat_params() const { return flatten_values(params_); }
    std::vector<float> flat_grads() const { return flatten_grads(params_); }
    void set_flat_params(std::span<const float> w) { set_values(params_, w); }
    void add_flat_delta(std::span<const float> d) { apply_delta(params_, d); }
    /// dst += gradients, without materializing flat_grads().
    void accumulate_grads_into(std::span<float> dst) const {
        accumulate_grads(params_, dst);
    }
    /// params += a * x, without materializing a delta vector.
    void axpy_params(float a, std::span<const float> x) { axpy_values(params_, a, x); }

protected:
    /// Derived classes populate this once construction is complete.
    std::vector<ParamView> params_;
};

}  // namespace gtopk::nn
