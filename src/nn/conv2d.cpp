#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "util/vec4.hpp"

namespace gtopk::nn {

namespace {

using vec4::f32x4;

/// A half-open range [lo, hi) of output rows or columns.
struct TapRange {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/// The outputs o whose tap reads an input row (or column)
/// o * stride + tap - padding inside [0, in). Taps outside it read padding;
/// the kernels skip them rather than add them as zero, which could change
/// a signed zero or turn an infinity into NaN.
TapRange tap_range(std::int64_t tap, std::int64_t in, std::int64_t out, std::int64_t stride,
                   std::int64_t padding) {
    const std::int64_t first = padding - tap;         // o * stride >= first
    const std::int64_t last = in - 1 + padding - tap;  // o * stride <= last
    if (last < 0) return {};
    const std::int64_t lo = first > 0 ? (first + stride - 1) / stride : 0;
    const std::int64_t hi = std::min(out, last / stride + 1);
    return {lo, std::max(lo, hi)};
}

/// tap_range for every tap 0 .. kernel - 1 along one spatial axis.
std::vector<TapRange> tap_ranges(std::int64_t kernel, std::int64_t in, std::int64_t out,
                                 std::int64_t stride, std::int64_t padding) {
    std::vector<TapRange> r(static_cast<std::size_t>(kernel));
    for (std::int64_t t = 0; t < kernel; ++t) {
        r[static_cast<std::size_t>(t)] = tap_range(t, in, out, stride, padding);
    }
    return r;
}

/// One weight tap (ic, ki, kj) of dw for every output channel: dw[oc, tap]
/// += sum over valid (i, j) ascending of dy[b, oc, i, j] * x[b, ic, hi, wj].
struct DwTap {
    float* dw;                // dw[0, ic, ki, kj]
    std::int64_t dw_stride;   // between output channels
    std::int64_t out_c;
    const float* gt;          // dy[b] as [i, j, oc padded to ocp]
    std::int64_t ocp;
    std::int64_t ow;
    const float* x;           // x[b, ic]
    std::int64_t x_off;       // output (i, j) reads x[i * s * w + j * s + x_off]
    std::int64_t w;
    std::int64_t s;
    TapRange rows, cols;

    /// Output channels [oc0, oc0 + 4 * NV): NV independent vector chains
    /// hide the add latency; padding lanes are computed and dropped.
    template <int NV>
    void accumulate(std::int64_t oc0) const {
        f32x4 acc[NV]{};
        for (int v = 0; v < NV; ++v) {
            for (int l = 0; l < 4; ++l) {
                const std::int64_t oc = oc0 + 4 * v + l;
                acc[v][l] = oc < out_c ? dw[oc * dw_stride] : 0.0f;
            }
        }
        for (std::int64_t i = rows.lo; i < rows.hi; ++i) {
            const float* xr = x + (i * s * w + cols.lo * s + x_off);
            const float* gr = gt + (i * ow + cols.lo) * ocp + oc0;
            for (std::int64_t t = 0; t < cols.hi - cols.lo; ++t) {
                const f32x4 xv = vec4::splat(xr[t * s]);
#pragma GCC unroll 4
                for (int v = 0; v < NV; ++v) {
                    acc[v] = acc[v] + vec4::load(gr + t * ocp + 4 * v) * xv;
                }
            }
        }
        for (int v = 0; v < NV; ++v) {
            for (int l = 0; l < 4; ++l) {
                const std::int64_t oc = oc0 + 4 * v + l;
                if (oc < out_c) dw[oc * dw_stride] = acc[v][l];
            }
        }
    }
};

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      w_(static_cast<std::size_t>(out_channels * in_channels * kernel * kernel),
         "conv.w"),
      b_(static_cast<std::size_t>(out_channels), "conv.b") {}

Tensor Conv2d::forward(const Tensor& x, bool training) {
    if (x.rank() != 4 || x.dim(1) != in_c_) {
        throw std::invalid_argument("Conv2d::forward: expected [N, C_in, H, W]");
    }
    if (training) cached_x_ = x;
    const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::int64_t oh = out_dim(h), ow = out_dim(w);
    const std::int64_t k = kernel_, s = stride_, p = padding_;
    const std::vector<TapRange> rows = tap_ranges(k, h, oh, s, p);
    const std::vector<TapRange> cols = tap_ranges(k, w, ow, s, p);
    Tensor y({n, out_c_, oh, ow});
    for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
            float* yp = y.raw() + (b * out_c_ + oc) * oh * ow;
            std::fill(yp, yp + oh * ow, b_.value[static_cast<std::size_t>(oc)]);
            for (std::int64_t ic = 0; ic < in_c_; ++ic) {
                const float* xp = x.raw() + (b * in_c_ + ic) * h * w;
                const float* wp = w_.value.data() + (oc * in_c_ + ic) * k * k;
                for (std::int64_t ki = 0; ki < k; ++ki) {
                    const TapRange ri = rows[static_cast<std::size_t>(ki)];
                    for (std::int64_t kj = 0; kj < k; ++kj) {
                        const TapRange rj = cols[static_cast<std::size_t>(kj)];
                        const std::int64_t len = rj.hi - rj.lo;
                        const float wv = wp[ki * k + kj];
                        for (std::int64_t i = ri.lo; i < ri.hi; ++i) {
                            float* yr = yp + i * ow + rj.lo;
                            const float* xr = xp + ((i * s + ki - p) * w + rj.lo * s + kj - p);
                            if (s == 1) {
                                vec4::axpy(yr, xr, wv, len);
                            } else {
                                for (std::int64_t t = 0; t < len; ++t) yr[t] += wv * xr[t * s];
                            }
                        }
                    }
                }
            }
        }
    }
    return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
    const Tensor& x = cached_x_;
    if (x.rank() != 4) {
        throw std::invalid_argument("Conv2d::backward: no training forward to differentiate");
    }
    const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::int64_t oh = out_dim(h), ow = out_dim(w);
    if (dy.rank() != 4 || dy.dim(0) != n || dy.dim(1) != out_c_ || dy.dim(2) != oh ||
        dy.dim(3) != ow) {
        throw std::invalid_argument("Conv2d::backward: shape mismatch");
    }
    const std::int64_t k = kernel_, s = stride_, p = padding_;
    const std::vector<TapRange> rows = tap_ranges(k, h, oh, s, p);
    const std::vector<TapRange> cols = tap_ranges(k, w, ow, s, p);
    const std::int64_t plane = oh * ow;
    // dy[b] transposed to [i, j, oc], output channels padded to whole
    // vectors with zero lanes: one load gives four channels' dy at (i, j).
    const std::int64_t ocp = (out_c_ + 3) / 4 * 4;
    std::vector<float> gt(static_cast<std::size_t>(plane * ocp), 0.0f);
    Tensor dx({n, in_c_, h, w});
    for (std::int64_t b = 0; b < n; ++b) {
        const float* gb = dy.raw() + b * out_c_ * plane;
        const float* xb = x.raw() + b * in_c_ * h * w;
        float* dxb = dx.raw() + b * in_c_ * h * w;
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
            const float* gp = gb + oc * plane;
            float& dbo = b_.grad[static_cast<std::size_t>(oc)];
            for (std::int64_t t = 0; t < plane; ++t) {
                dbo += gp[t];
                gt[static_cast<std::size_t>(t * ocp + oc)] = gp[t];
            }
        }
        // dx[b, ic, hi, wj] sums over (oc, i, j) ascending, which for one
        // element is (oc ascending, ki descending, kj descending).
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
            const float* gp = gb + oc * plane;
            for (std::int64_t ic = 0; ic < in_c_; ++ic) {
                float* dxp = dxb + ic * h * w;
                const float* wp = w_.value.data() + (oc * in_c_ + ic) * k * k;
                for (std::int64_t ki = k - 1; ki >= 0; --ki) {
                    const TapRange ri = rows[static_cast<std::size_t>(ki)];
                    for (std::int64_t kj = k - 1; kj >= 0; --kj) {
                        const TapRange rj = cols[static_cast<std::size_t>(kj)];
                        const std::int64_t len = rj.hi - rj.lo;
                        const float wv = wp[ki * k + kj];
                        for (std::int64_t i = ri.lo; i < ri.hi; ++i) {
                            const float* gr = gp + i * ow + rj.lo;
                            float* dxr = dxp + ((i * s + ki - p) * w + rj.lo * s + kj - p);
                            if (s == 1) {
                                vec4::axpy(dxr, gr, wv, len);
                            } else {
                                for (std::int64_t t = 0; t < len; ++t) dxr[t * s] += gr[t] * wv;
                            }
                        }
                    }
                }
            }
        }
        // dw[oc, ic, ki, kj] sums over (b, i, j) ascending; a vector lane
        // is one output channel, so each lane keeps its own chain.
        for (std::int64_t ic = 0; ic < in_c_; ++ic) {
            const float* xp = xb + ic * h * w;
            for (std::int64_t ki = 0; ki < k; ++ki) {
                for (std::int64_t kj = 0; kj < k; ++kj) {
                    const DwTap tap{w_.grad.data() + (ic * k + ki) * k + kj,
                                    in_c_ * k * k,
                                    out_c_,
                                    gt.data(),
                                    ocp,
                                    ow,
                                    xp,
                                    (ki - p) * w + kj - p,
                                    w,
                                    s,
                                    rows[static_cast<std::size_t>(ki)],
                                    cols[static_cast<std::size_t>(kj)]};
                    for (std::int64_t oc0 = 0; oc0 < ocp;) {
                        switch (std::min<std::int64_t>(4, (ocp - oc0) / 4)) {
                            case 4: tap.accumulate<4>(oc0); oc0 += 16; break;
                            case 3: tap.accumulate<3>(oc0); oc0 += 12; break;
                            case 2: tap.accumulate<2>(oc0); oc0 += 8; break;
                            default: tap.accumulate<1>(oc0); oc0 += 4; break;
                        }
                    }
                }
            }
        }
    }
    return dx;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
    out.push_back(&w_);
    out.push_back(&b_);
}

void Conv2d::init_params(util::Xoshiro256& rng) {
    kaiming_normal(w_.value, static_cast<std::size_t>(in_c_ * kernel_ * kernel_), rng);
}

}  // namespace gtopk::nn
