#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gtopk::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(static_cast<std::size_t>(channels), "bn.gamma"),
      beta_(gamma_.size, "bn.beta"),
      running_mean_(gamma_.size, 0.0f),
      running_var_(gamma_.size, 1.0f) {
    if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels must be > 0");
}

Tensor BatchNorm2d::forward(const Tensor& x, bool training) {
    if (x.rank() != 4 || x.dim(1) != channels_) {
        throw std::invalid_argument("BatchNorm2d: expected [N, C, H, W]");
    }
    const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::int64_t count = n * h * w;
    Tensor y(x.shape());

    if (training) {
        cached_mean_.assign(static_cast<std::size_t>(channels_), 0.0f);
        cached_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
        cached_xhat_ = Tensor(x.shape());
        cached_count_ = count;
    }

    for (std::int64_t c = 0; c < channels_; ++c) {
        float mean = 0.0f, var = 0.0f;
        if (training) {
            double sum = 0.0, sum_sq = 0.0;
            for (std::int64_t b = 0; b < n; ++b) {
                for (std::int64_t i = 0; i < h; ++i) {
                    for (std::int64_t j = 0; j < w; ++j) {
                        const double v = x.at4(b, c, i, j);
                        sum += v;
                        sum_sq += v * v;
                    }
                }
            }
            mean = static_cast<float>(sum / static_cast<double>(count));
            var = static_cast<float>(sum_sq / static_cast<double>(count)) - mean * mean;
            var = std::max(var, 0.0f);
            running_mean_[static_cast<std::size_t>(c)] =
                (1.0f - momentum_) * running_mean_[static_cast<std::size_t>(c)] +
                momentum_ * mean;
            running_var_[static_cast<std::size_t>(c)] =
                (1.0f - momentum_) * running_var_[static_cast<std::size_t>(c)] +
                momentum_ * var;
        } else {
            mean = running_mean_[static_cast<std::size_t>(c)];
            var = running_var_[static_cast<std::size_t>(c)];
        }
        const float inv_std = 1.0f / std::sqrt(var + eps_);
        const float g = gamma_.value[static_cast<std::size_t>(c)];
        const float bshift = beta_.value[static_cast<std::size_t>(c)];
        if (training) {
            cached_mean_[static_cast<std::size_t>(c)] = mean;
            cached_inv_std_[static_cast<std::size_t>(c)] = inv_std;
        }
        for (std::int64_t b = 0; b < n; ++b) {
            for (std::int64_t i = 0; i < h; ++i) {
                for (std::int64_t j = 0; j < w; ++j) {
                    const float xhat = (x.at4(b, c, i, j) - mean) * inv_std;
                    if (training) cached_xhat_.at4(b, c, i, j) = xhat;
                    y.at4(b, c, i, j) = g * xhat + bshift;
                }
            }
        }
    }
    return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
    const Tensor& xhat = cached_xhat_;
    if (!dy.same_shape(xhat)) throw std::invalid_argument("BatchNorm2d: bad dy shape");
    const std::int64_t n = dy.dim(0), h = dy.dim(2), w = dy.dim(3);
    const auto count = static_cast<float>(cached_count_);
    Tensor dx(dy.shape());

    for (std::int64_t c = 0; c < channels_; ++c) {
        // Accumulate the two batch reductions the BN gradient needs.
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (std::int64_t b = 0; b < n; ++b) {
            for (std::int64_t i = 0; i < h; ++i) {
                for (std::int64_t j = 0; j < w; ++j) {
                    const double g = dy.at4(b, c, i, j);
                    sum_dy += g;
                    sum_dy_xhat += g * xhat.at4(b, c, i, j);
                }
            }
        }
        beta_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy);
        gamma_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy_xhat);

        const float gamma = gamma_.value[static_cast<std::size_t>(c)];
        const float inv_std = cached_inv_std_[static_cast<std::size_t>(c)];
        const float mean_dy = static_cast<float>(sum_dy) / count;
        const float mean_dy_xhat = static_cast<float>(sum_dy_xhat) / count;
        // dx = gamma * inv_std * (dy - mean(dy) - xhat * mean(dy * xhat))
        for (std::int64_t b = 0; b < n; ++b) {
            for (std::int64_t i = 0; i < h; ++i) {
                for (std::int64_t j = 0; j < w; ++j) {
                    dx.at4(b, c, i, j) =
                        gamma * inv_std *
                        (dy.at4(b, c, i, j) - mean_dy -
                         xhat.at4(b, c, i, j) * mean_dy_xhat);
                }
            }
        }
    }
    return dx;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
    out.push_back(&gamma_);
    out.push_back(&beta_);
}

void BatchNorm2d::init_params(util::Xoshiro256& rng) {
    (void)rng;
    std::ranges::fill(gamma_.value, 1.0f);
}

}  // namespace gtopk::nn
