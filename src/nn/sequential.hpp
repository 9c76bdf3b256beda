// Sequential container: runs layers in order forward, reverse backward.
#pragma once

#include "nn/layer.hpp"

namespace gtopk::nn {

class Sequential final : public Layer {
public:
    Sequential() = default;

    Sequential& add(LayerPtr layer) {
        layers_.push_back(std::move(layer));
        return *this;
    }

    template <typename L, typename... Args>
    Sequential& emplace(Args&&... args) {
        layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
        return *this;
    }

    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    Tensor backward_fold(const Tensor& dy, const GradFold& fold) override;
    void collect_params(std::vector<Param*>& out) override;
    void init_params(util::Xoshiro256& rng) override;
    std::string name() const override { return "Sequential"; }

private:
    std::vector<LayerPtr> layers_;
};

}  // namespace gtopk::nn
