// Fully connected layer: y = x W^T + b, x: [N, in], W: [out, in], b: [out].
// Each element's sum has a fixed order (the results are pinned bit for bit):
//   y[n,o]        the bias, then x*w over k ascending.
//   dw[o,k], db[o]   sum over samples n ascending.
//   dx[n,k]       sums over o ascending, starting from +0.
// backward_fold builds each dW row, and db, from +0 in a scratch buffer and
// folds it when it is final: the arena slice is never written or read.
// Loops may interleave or vectorize independent elements, never the terms
// of one sum.
#pragma once

#include "nn/layer.hpp"

namespace gtopk::nn {

class Linear final : public Layer {
public:
    Linear(std::int64_t in_features, std::int64_t out_features);

    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    Tensor backward_fold(const Tensor& dy, const GradFold& fold) override;
    void collect_params(std::vector<Param*>& out) override;
    void init_params(util::Xoshiro256& rng) override;
    std::string name() const override { return "Linear"; }

    std::int64_t in_features() const { return in_; }
    std::int64_t out_features() const { return out_; }

private:
    /// backward's loops; with a fold, the dW rows and db are built in
    /// fold_row_ and fold_db_ and folded instead of accumulated in place.
    Tensor backward_rows(const Tensor& dy, const GradFold* fold);

    std::int64_t in_;
    std::int64_t out_;
    Param w_;  // [out, in]
    Param b_;  // [out]
    Tensor cached_x_;
    std::vector<float> fold_row_, fold_db_;
};

}  // namespace gtopk::nn
