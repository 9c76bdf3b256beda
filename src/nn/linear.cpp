#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "util/vec4.hpp"

namespace gtopk::nn {

namespace {

using vec4::f32x4;

/// A block of consecutive samples in Linear::backward, all pointing at the
/// block's first sample.
struct RowBlock {
    const float* x;   // cached input, [NB, in]
    const float* dy;  // dy[n0, o]; sample l's at dy[l * out]
    float* dx;        // [NB, in]
    std::int64_t in;
    std::int64_t out;

    /// Weight row o for NB samples: db[o] and every dw[o, k] add the
    /// samples' terms in ascending order; dx[n, k] gets row o's term.
    template <int NB>
    void backward(const float* wo, float* dwo, float& dbo) const {
        float g[NB]{};
        f32x4 gv[NB]{};
        for (int l = 0; l < NB; ++l) {
            g[l] = dy[l * out];
            dbo += g[l];
            gv[l] = vec4::splat(g[l]);
        }
        std::int64_t k = 0;
        for (; k + 4 <= in; k += 4) {
            const f32x4 wv = vec4::load(wo + k);
            f32x4 dwv = vec4::load(dwo + k);
#pragma GCC unroll 4
            for (int l = 0; l < NB; ++l) {
                dwv = dwv + gv[l] * vec4::load(x + l * in + k);
                float* dxk = dx + l * in + k;
                vec4::store(dxk, vec4::load(dxk) + gv[l] * wv);
            }
            vec4::store(dwo + k, dwv);
        }
        for (; k < in; ++k) {
            for (int l = 0; l < NB; ++l) {
                dwo[k] += g[l] * x[l * in + k];
                dx[l * in + k] += g[l] * wo[k];
            }
        }
    }
};

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features)
    : in_(in_features),
      out_(out_features),
      w_(static_cast<std::size_t>(in_features * out_features), "linear.w"),
      b_(static_cast<std::size_t>(out_features), "linear.b") {}

Tensor Linear::forward(const Tensor& x, bool training) {
    if (x.rank() != 2 || x.dim(1) != in_) {
        throw std::invalid_argument("Linear::forward: expected [N, in]");
    }
    if (training) cached_x_ = x;
    const std::int64_t n = x.dim(0);
    Tensor y({n, out_});
    // Up to four samples share one pass over the weights: lane l of a
    // vector is sample n0 + l, and each lane runs y[n, o]'s own chain, the
    // bias then k ascending. xt holds the block's inputs as [k, lane].
    std::vector<float> xt(static_cast<std::size_t>(in_ * 4));
    for (std::int64_t n0 = 0; n0 < n; n0 += 4) {
        const std::int64_t nb = std::min<std::int64_t>(4, n - n0);
        for (std::int64_t k = 0; k < in_; ++k) {
            for (std::int64_t l = 0; l < 4; ++l) {
                xt[static_cast<std::size_t>(k * 4 + l)] =
                    l < nb ? x.raw()[(n0 + l) * in_ + k] : 0.0f;
            }
        }
        auto emit = [&](std::int64_t o, f32x4 acc) {
            for (std::int64_t l = 0; l < nb; ++l) y.raw()[(n0 + l) * out_ + o] = acc[l];
        };
        std::int64_t o = 0;
        // Four weight rows at a time: four independent chains per lane.
        for (; o + 4 <= out_; o += 4) {
            const float* w0 = w_.value.data() + o * in_;
            const float* w1 = w0 + in_;
            const float* w2 = w1 + in_;
            const float* w3 = w2 + in_;
            f32x4 a0 = vec4::splat(b_.value[static_cast<std::size_t>(o)]);
            f32x4 a1 = vec4::splat(b_.value[static_cast<std::size_t>(o + 1)]);
            f32x4 a2 = vec4::splat(b_.value[static_cast<std::size_t>(o + 2)]);
            f32x4 a3 = vec4::splat(b_.value[static_cast<std::size_t>(o + 3)]);
            for (std::int64_t k = 0; k < in_; ++k) {
                const f32x4 xk = vec4::load(xt.data() + k * 4);
                a0 = a0 + xk * vec4::splat(w0[k]);
                a1 = a1 + xk * vec4::splat(w1[k]);
                a2 = a2 + xk * vec4::splat(w2[k]);
                a3 = a3 + xk * vec4::splat(w3[k]);
            }
            emit(o, a0);
            emit(o + 1, a1);
            emit(o + 2, a2);
            emit(o + 3, a3);
        }
        for (; o < out_; ++o) {
            const float* wo = w_.value.data() + o * in_;
            f32x4 acc = vec4::splat(b_.value[static_cast<std::size_t>(o)]);
            for (std::int64_t k = 0; k < in_; ++k) {
                acc = acc + vec4::load(xt.data() + k * 4) * vec4::splat(wo[k]);
            }
            emit(o, acc);
        }
    }
    return y;
}

Tensor Linear::backward(const Tensor& dy) { return backward_rows(dy, nullptr); }

Tensor Linear::backward_fold(const Tensor& dy, const GradFold& fold) {
    return backward_rows(dy, &fold);
}

Tensor Linear::backward_rows(const Tensor& dy, const GradFold* fold) {
    if (dy.rank() != 2 || dy.dim(1) != out_ || cached_x_.rank() != 2 ||
        cached_x_.dim(0) != dy.dim(0)) {
        throw std::invalid_argument("Linear::backward: shape mismatch");
    }
    const std::int64_t n = dy.dim(0);
    Tensor dx({n, in_});
    if (fold) {
        fold_row_.resize(static_cast<std::size_t>(in_));
        fold_db_.assign(static_cast<std::size_t>(out_), 0.0f);
    }
    // o outer: each weight row and its gradient row are read once for all
    // samples. dw[o, k] and db[o] sum over samples ascending; dx[n, k] sums
    // over o ascending.
    for (std::int64_t o = 0; o < out_; ++o) {
        const float* wo = w_.value.data() + o * in_;
        const std::span<float> dw_row = w_.grad.subspan(static_cast<std::size_t>(o * in_),
                                                        static_cast<std::size_t>(in_));
        float* dwo = dw_row.data();
        float* dbo = b_.grad.data() + o;
        if (fold) {
            std::ranges::fill(fold_row_, 0.0f);
            dwo = fold_row_.data();
            dbo = fold_db_.data() + o;
        }
        for (std::int64_t n0 = 0; n0 < n; n0 += 4) {
            const RowBlock r{cached_x_.raw() + n0 * in_, dy.raw() + n0 * out_ + o,
                             dx.raw() + n0 * in_, in_, out_};
            switch (std::min<std::int64_t>(4, n - n0)) {
                case 4: r.backward<4>(wo, dwo, *dbo); break;
                case 3: r.backward<3>(wo, dwo, *dbo); break;
                case 2: r.backward<2>(wo, dwo, *dbo); break;
                default: r.backward<1>(wo, dwo, *dbo); break;
            }
        }
        if (fold) (*fold)(dw_row, fold_row_);
    }
    if (fold) (*fold)(b_.grad, fold_db_);
    return dx;
}

void Linear::collect_params(std::vector<Param*>& out) {
    out.push_back(&w_);
    out.push_back(&b_);
}

void Linear::init_params(util::Xoshiro256& rng) {
    kaiming_normal(w_.value, static_cast<std::size_t>(in_), rng);
}

}  // namespace gtopk::nn
