// 2-D batch normalization (per-channel over N, H, W), with learnable scale
// gamma and shift beta, batch statistics in training and running averages
// in evaluation — the normalization real ResNets rely on.
//
// Distributed caveat (documented, tested): statistics are computed over the
// LOCAL mini-batch, as in the paper's per-GPU PyTorch BatchNorm. Gradients
// are still aggregated globally, and running averages evolve identically on
// all replicas because inputs are rank-sharded but updates are shared, so
// replicas only agree if eval uses each replica's own running stats — the
// integration tests train and evaluate exactly that way.
#pragma once

#include "nn/layer.hpp"

namespace gtopk::nn {

class BatchNorm2d final : public Layer {
public:
    explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                         float momentum = 0.1f);

    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    void collect_params(std::vector<Param*>& out) override;
    void init_params(util::Xoshiro256& rng) override;
    std::string name() const override { return "BatchNorm2d"; }

    std::span<const float> running_mean() const { return running_mean_; }
    std::span<const float> running_var() const { return running_var_; }

private:
    std::int64_t channels_;
    float eps_;
    float momentum_;
    Param gamma_, beta_;
    std::vector<float> running_mean_, running_var_;
    // Training-time caches for backward.
    Tensor cached_xhat_;
    std::vector<float> cached_mean_, cached_inv_std_;
    std::int64_t cached_count_ = 0;  // N*H*W per channel
};

}  // namespace gtopk::nn
