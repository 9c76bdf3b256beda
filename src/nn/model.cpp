#include "nn/model.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <stdexcept>

#include "util/vec4.hpp"

namespace gtopk::nn {

void axpy_values(std::span<float> w, float a, std::span<const float> x) {
    if (x.size() != w.size()) throw std::invalid_argument("axpy_values: size mismatch");
    vec4::axpy(w.data(), x.data(), a, static_cast<std::int64_t>(w.size()));
}

void momentum_axpy_values(std::span<float> w, float mom, std::span<float> v,
                          std::span<const float> u, float a) {
    if (v.size() != w.size() || u.size() != v.size()) {
        throw std::invalid_argument("momentum_axpy_values: size mismatch");
    }
    // Lanes hold independent elements, so each one gets the scalar
    // mom*v + u and w + a*v. A velocity below FLT_MIN in magnitude snaps to
    // +0 before the step uses it: a coordinate the global top-k stopped
    // selecting decays by mom into the subnormals and sticks there (0.9 *
    // n*2^-149 rounds back to n*2^-149 for n <= 4), and every later pass
    // would pay a microcode assist on it. Normal velocities keep their bits.
    using i32x4 = std::int32_t __attribute__((vector_size(16)));
    const vec4::f32x4 mv = vec4::splat(mom);
    const vec4::f32x4 av = vec4::splat(a);
    const vec4::f32x4 tiny = vec4::splat(FLT_MIN);
    float* ws = w.data();
    float* vs = v.data();
    const float* us = u.data();
    const std::size_t n = w.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const vec4::f32x4 vi = mv * vec4::load(vs + i) + vec4::load(us + i);
        const i32x4 bits = std::bit_cast<i32x4>(vi);
        const vec4::f32x4 mag = std::bit_cast<vec4::f32x4>(bits & 0x7fffffff);
        const vec4::f32x4 snapped = std::bit_cast<vec4::f32x4>(bits & ~(mag < tiny));
        vec4::store(vs + i, snapped);
        vec4::store(ws + i, vec4::load(ws + i) + av * snapped);
    }
    for (; i < n; ++i) {
        const float vi = mom * vs[i] + us[i];
        vs[i] = std::fabs(vi) < FLT_MIN ? 0.0f : vi;
        ws[i] += a * vs[i];
    }
}

void TrainableModel::set_flat_params(std::span<const float> w) {
    const std::span<float> dst = values();
    if (w.size() != dst.size()) throw std::invalid_argument("set_flat_params: size mismatch");
    std::ranges::copy(w, dst.begin());
}

void TrainableModel::accumulate_grads_into(std::span<float> dst) const {
    const std::span<const float> g = grads();
    if (dst.size() != g.size()) {
        throw std::invalid_argument("accumulate_grads_into: size mismatch");
    }
    for (std::size_t i = 0; i < g.size(); ++i) dst[i] += g[i];
}

void TrainableModel::adopt(const std::vector<Param*>& params) {
    arena_ = ParamArena(params);
    params_.clear();
    for (const Param* p : params) params_.push_back(*p);
}

std::span<float> TrainableModel::arena(std::span<float> ParamView::*member) const {
    if (params_.empty()) return {};
    const std::span<float> first = params_.front().*member;
    const std::span<float> last = params_.back().*member;
    return {first.data(), last.data() + last.size()};
}

}  // namespace gtopk::nn
