#include "nn/layer.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/vec4.hpp"

namespace gtopk::nn {

std::size_t param_count(const std::vector<ParamView>& params) {
    std::size_t n = 0;
    for (const auto& p : params) n += p.value->size();
    return n;
}

void zero_grads(const std::vector<ParamView>& params) {
    for (const auto& p : params) {
        std::fill(p.grad->begin(), p.grad->end(), 0.0f);
    }
}

std::vector<float> flatten_values(const std::vector<ParamView>& params) {
    std::vector<float> flat;
    flat.reserve(param_count(params));
    for (const auto& p : params) {
        flat.insert(flat.end(), p.value->begin(), p.value->end());
    }
    return flat;
}

std::vector<float> flatten_grads(const std::vector<ParamView>& params) {
    std::vector<float> flat;
    flat.reserve(param_count(params));
    for (const auto& p : params) {
        flat.insert(flat.end(), p.grad->begin(), p.grad->end());
    }
    return flat;
}

void set_values(const std::vector<ParamView>& params, std::span<const float> flat) {
    if (flat.size() != param_count(params)) {
        throw std::invalid_argument("set_values: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        std::memcpy(p.value->data(), flat.data() + off, p.value->size() * sizeof(float));
        off += p.value->size();
    }
}

void apply_delta(const std::vector<ParamView>& params, std::span<const float> delta) {
    if (delta.size() != param_count(params)) {
        throw std::invalid_argument("apply_delta: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        float* w = p.value->data();
        const float* d = delta.data() + off;
        for (std::size_t i = 0; i < p.value->size(); ++i) w[i] += d[i];
        off += p.value->size();
    }
}

void accumulate_grads(const std::vector<ParamView>& params, std::span<float> dst) {
    if (dst.size() != param_count(params)) {
        throw std::invalid_argument("accumulate_grads: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        const float* g = p.grad->data();
        float* d = dst.data() + off;
        for (std::size_t i = 0; i < p.grad->size(); ++i) d[i] += g[i];
        off += p.grad->size();
    }
}

void axpy_values(const std::vector<ParamView>& params, float a,
                 std::span<const float> x) {
    if (x.size() != param_count(params)) {
        throw std::invalid_argument("axpy_values: size mismatch");
    }
    std::size_t off = 0;
    for (const auto& p : params) {
        vec4::axpy(p.value->data(), x.data() + off, a,
                   static_cast<std::int64_t>(p.value->size()));
        off += p.value->size();
    }
}

void momentum_axpy_values(const std::vector<ParamView>& params, float mom,
                          std::span<float> v, std::span<const float> u, float a) {
    if (v.size() != param_count(params) || u.size() != v.size()) {
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
    std::size_t off = 0;
    for (const auto& p : params) {
        float* w = p.value->data();
        float* vs = v.data() + off;
        const float* us = u.data() + off;
        const std::size_t n = p.value->size();
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            const vec4::f32x4 vi = mv * vec4::load(vs + i) + vec4::load(us + i);
            const i32x4 bits = std::bit_cast<i32x4>(vi);
            const vec4::f32x4 mag = std::bit_cast<vec4::f32x4>(bits & 0x7fffffff);
            const vec4::f32x4 snapped = std::bit_cast<vec4::f32x4>(bits & ~(mag < tiny));
            vec4::store(vs + i, snapped);
            vec4::store(w + i, vec4::load(w + i) + av * snapped);
        }
        for (; i < n; ++i) {
            const float vi = mom * vs[i] + us[i];
            vs[i] = std::fabs(vi) < FLT_MIN ? 0.0f : vi;
            w[i] += a * vs[i];
        }
        off += n;
    }
}

}  // namespace gtopk::nn
