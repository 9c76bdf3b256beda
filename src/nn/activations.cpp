#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gtopk::nn {

Tensor ReLU::forward(const Tensor& x, bool training) {
    if (training) cached_x_ = x;
    Tensor y = x;
    for (auto& v : y.data()) v = v > 0.0f ? v : 0.0f;
    return y;
}

namespace {

/// The elementwise backward passes index their cache by dy's positions:
/// dy must have the shape the last training forward cached.
void check_cached(const Tensor& cached, const Tensor& dy, const char* what) {
    if (cached.rank() == 0 || !cached.same_shape(dy)) {
        throw std::invalid_argument(std::string(what) +
                                    ": dy does not match the last training forward");
    }
}

}  // namespace

Tensor ReLU::backward(const Tensor& dy) {
    check_cached(cached_x_, dy, "ReLU::backward");
    Tensor dx = dy;
    auto xs = cached_x_.data();
    auto ds = dx.data();
    for (std::size_t i = 0; i < ds.size(); ++i) {
        if (xs[i] <= 0.0f) ds[i] = 0.0f;
    }
    return dx;
}

Tensor Tanh::forward(const Tensor& x, bool training) {
    Tensor y = x;
    for (auto& v : y.data()) v = std::tanh(v);
    if (training) cached_y_ = y;
    return y;
}

Tensor Tanh::backward(const Tensor& dy) {
    check_cached(cached_y_, dy, "Tanh::backward");
    Tensor dx = dy;
    auto ys = cached_y_.data();
    auto ds = dx.data();
    for (std::size_t i = 0; i < ds.size(); ++i) ds[i] *= 1.0f - ys[i] * ys[i];
    return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
    Tensor y = x;
    for (auto& v : y.data()) v = 1.0f / (1.0f + std::exp(-v));
    if (training) cached_y_ = y;
    return y;
}

Tensor Sigmoid::backward(const Tensor& dy) {
    check_cached(cached_y_, dy, "Sigmoid::backward");
    Tensor dx = dy;
    auto ys = cached_y_.data();
    auto ds = dx.data();
    for (std::size_t i = 0; i < ds.size(); ++i) ds[i] *= ys[i] * (1.0f - ys[i]);
    return dx;
}

Tensor Flatten::forward(const Tensor& x, bool training) {
    if (training) cached_shape_ = x.shape();
    const std::int64_t n = x.dim(0);
    return x.reshaped({n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(cached_shape_); }

}  // namespace gtopk::nn
