// Four-lane float vectors (GCC/Clang vector extensions) for the Conv2d and
// Linear kernels, the parameter update and the residual accumulate. Each
// lane performs exactly the scalar IEEE operation, so a loop that puts four
// *independent* elements in one vector computes the same bits as the
// scalar loop. The terms of one sum never share a vector: that would
// reassociate it.
#pragma once

#include <cstdint>
#include <cstring>

namespace gtopk::vec4 {

using f32x4 = float __attribute__((vector_size(16)));

inline f32x4 load(const float* p) {
    f32x4 v{};
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

inline f32x4 splat(float a) { return f32x4{a, a, a, a}; }

/// y[t] += a * x[t] for t in [0, n): one multiply and one add per element.
inline void axpy(float* y, const float* x, float a, std::int64_t n) {
    const f32x4 av = splat(a);
    std::int64_t t = 0;
    for (; t + 4 <= n; t += 4) store(y + t, load(y + t) + av * load(x + t));
    for (; t < n; ++t) y[t] += a * x[t];
}

}  // namespace gtopk::vec4
