#include "nn/pool2d.hpp"

#include <limits>
#include <stdexcept>

namespace gtopk::nn {

MaxPool2d::MaxPool2d(std::int64_t window) : window_(window) {
    if (window <= 0) throw std::invalid_argument("MaxPool2d: window must be positive");
}

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
    (void)training;  // argmax is needed in both modes; cheap enough to keep
    if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: expected NCHW");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    if (h % window_ != 0 || w % window_ != 0) {
        throw std::invalid_argument("MaxPool2d: dims must divide window");
    }
    const std::int64_t oh = h / window_, ow = w / window_;
    in_shape_ = x.shape();
    Tensor y({n, c, oh, ow});
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
    std::size_t out_pos = 0;
    for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
            for (std::int64_t i = 0; i < oh; ++i) {
                for (std::int64_t j = 0; j < ow; ++j, ++out_pos) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_idx = 0;
                    for (std::int64_t di = 0; di < window_; ++di) {
                        for (std::int64_t dj = 0; dj < window_; ++dj) {
                            const std::int64_t hi = i * window_ + di;
                            const std::int64_t wj = j * window_ + dj;
                            const float v = x.at4(b, ch, hi, wj);
                            if (v > best) {
                                best = v;
                                best_idx = ((b * c + ch) * h + hi) * w + wj;
                            }
                        }
                    }
                    y[out_pos] = best;
                    argmax_[out_pos] = best_idx;
                }
            }
        }
    }
    return y;
}

Tensor MaxPool2d::backward(const Tensor& dy) {
    if (in_shape_.empty() || dy.rank() != 4 || dy.dim(0) != in_shape_[0] ||
        dy.dim(1) != in_shape_[1] || dy.dim(2) != in_shape_[2] / window_ ||
        dy.dim(3) != in_shape_[3] / window_) {
        throw std::invalid_argument("MaxPool2d::backward: dy does not match the last forward");
    }
    Tensor dx(in_shape_);
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        dx[static_cast<std::size_t>(argmax_[i])] += dy[i];
    }
    return dx;
}

}  // namespace gtopk::nn
