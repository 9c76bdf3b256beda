#include "nn/residual.hpp"

#include <stdexcept>

namespace gtopk::nn {

Tensor ResidualBlock::forward(const Tensor& x, bool training) {
    Tensor y = body_->forward(x, training);
    if (!y.same_shape(x)) {
        throw std::invalid_argument("ResidualBlock: body must preserve shape");
    }
    auto ys = y.data();
    auto xs = x.data();
    for (std::size_t i = 0; i < ys.size(); ++i) ys[i] += xs[i];
    return y;
}

Tensor ResidualBlock::backward(const Tensor& dy) {
    Tensor dx = body_->backward(dy);
    auto ds = dx.data();
    auto gs = dy.data();
    for (std::size_t i = 0; i < ds.size(); ++i) ds[i] += gs[i];
    return dx;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
    body_->collect_params(out);
}

void ResidualBlock::init_params(util::Xoshiro256& rng) {
    body_->init_params(rng);
}

}  // namespace gtopk::nn
