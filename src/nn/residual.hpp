// Residual block: y = body(x) + x. Requires body to preserve shape — the
// building block of the MiniResNet model (paper's ResNet-20/50 stand-in).
#pragma once

#include "nn/sequential.hpp"

namespace gtopk::nn {

class ResidualBlock final : public Layer {
public:
    explicit ResidualBlock(std::unique_ptr<Sequential> body) : body_(std::move(body)) {}

    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    void collect_params(std::vector<Param*>& out) override;
    void init_params(util::Xoshiro256& rng) override;
    std::string name() const override { return "ResidualBlock"; }

private:
    std::unique_ptr<Sequential> body_;
};

}  // namespace gtopk::nn
