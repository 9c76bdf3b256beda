// 2-D convolution, NCHW layout, square kernel, configurable stride and
// zero padding. Direct loops, ordered for cache and vector use, that keep
// each element's sum in a fixed order (the results are pinned bit for bit):
//   y[b,oc,i,j]   the bias, then w*x over (ic, ki, kj) ascending. Taps that
//                 fall in the padding are skipped, never added as zero.
//   dw[oc,ic,ki,kj], db[oc]   sum over (b, i, j) ascending.
//   dx[b,ic,h,w]  sums over (oc, i, j) ascending, i.e. (oc ascending, ki
//                 descending, kj descending), starting from +0.
// Loops may interleave or vectorize independent elements, never the terms
// of one sum.
#pragma once

#include "nn/layer.hpp"

namespace gtopk::nn {

class Conv2d final : public Layer {
public:
    Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
           std::int64_t stride, std::int64_t padding);

    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    void collect_params(std::vector<Param*>& out) override;
    void init_params(util::Xoshiro256& rng) override;
    std::string name() const override { return "Conv2d"; }

    std::int64_t out_dim(std::int64_t in_dim) const {
        return (in_dim + 2 * padding_ - kernel_) / stride_ + 1;
    }

private:
    std::int64_t in_c_, out_c_, kernel_, stride_, padding_;
    Param w_;  // [out_c, in_c, k, k]
    Param b_;  // [out_c]
    Tensor cached_x_;
};

}  // namespace gtopk::nn
