#include "nn/model.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/vec4.hpp"

namespace gtopk::nn {

void axpy_values(std::span<float> w, float a, std::span<const float> x) {
    if (x.size() != w.size()) throw std::invalid_argument("axpy_values: size mismatch");
    vec4::axpy(w.data(), x.data(), a, static_cast<std::int64_t>(w.size()));
}

namespace {

using i32x4 = std::int32_t __attribute__((vector_size(16)));

/// Elements per chunk a zero run may skip: one 64-byte line of floats.
constexpr std::size_t kSkipChunk = 16;
/// Passes shorter than this never skip: they run from cache, bound by
/// arithmetic, and the check costs more than the work it saves. On a
/// shared 4-vCPU VM, perfbench's traced update read 25-30% slower with
/// the check on layerwise_tcp (m = 66 k, velocities nearly all nonzero)
/// and 0.2-0.6 ms faster of 2.1-2.4 ms on mlp_wide_gtopk (m = 2.6 M).
constexpr std::size_t kSkipMinSize = std::size_t{1} << 20;

/// The one momentum-SGD step, v = mom * v + u and then w += a * v, run by
/// `drive(lanes, one)`: lanes(i, u) steps elements [i, i + 4) with updates
/// u, one(i, u) element i. Lanes hold independent elements, so each one
/// gets the scalar mom*v + u and w + a*v. lanes(i) is lanes(i, +0) without
/// the add: x + +0 is x except that -0 becomes +0, and the snap below maps
/// both zeros to +0 anyway. A velocity below FLT_MIN in
/// magnitude snaps to +0 before the step uses it: a coordinate the global
/// top-k stopped selecting decays by mom into the subnormals and sticks
/// there (0.9 * n*2^-149 rounds back to n*2^-149 for n <= 4), and every
/// later pass would pay a microcode assist on it. Normal velocities keep
/// their bits.
template <class Drive>
void momentum_pass(std::span<float> w, float mom, std::span<float> v, float a, Drive drive) {
    const vec4::f32x4 mv = vec4::splat(mom);
    const vec4::f32x4 av = vec4::splat(a);
    const vec4::f32x4 tiny = vec4::splat(FLT_MIN);
    float* const ws = w.data();
    float* const vs = v.data();
    drive(
        [=](std::size_t i, auto... u) {
            const vec4::f32x4 vi = ((mv * vec4::load(vs + i)) + ... + u);
            const i32x4 bits = std::bit_cast<i32x4>(vi);
            const vec4::f32x4 mag = std::bit_cast<vec4::f32x4>(bits & 0x7fffffff);
            const vec4::f32x4 snapped = std::bit_cast<vec4::f32x4>(bits & ~(mag < tiny));
            vec4::store(vs + i, snapped);
            vec4::store(ws + i, vec4::load(ws + i) + av * snapped);
        },
        [=](std::size_t i, float u) {
            const float vi = mom * vs[i] + u;
            vs[i] = std::fabs(vi) < FLT_MIN ? 0.0f : vi;
            ws[i] += a * vs[i];
        });
}

/// True if the kSkipChunk floats at p are all +0 (bit pattern 0).
bool all_positive_zero(const float* p) {
    i32x4 any{};
    for (std::size_t l = 0; l < kSkipChunk; l += 4) any |= std::bit_cast<i32x4>(vec4::load(p + l));
    return (any[0] | any[1] | any[2] | any[3]) == 0;
}

/// Throws unless u's entries are as many as its values, strictly
/// increasing and below n.
void check_update(SparseUpdate u, std::size_t n, const char* who) {
    if (u.indices.size() != u.values.size()) {
        throw std::invalid_argument(std::string(who) + ": size mismatch");
    }
    std::int64_t prev = -1;
    for (const std::int32_t i : u.indices) {
        if (i <= prev || static_cast<std::size_t>(i) >= n) {
            throw std::invalid_argument(std::string(who) + ": update index " +
                                        std::to_string(i) + " out of order or range");
        }
        prev = i;
    }
}

}  // namespace

void momentum_axpy_values(std::span<float> w, float mom, std::span<float> v,
                          std::span<const float> u, float a) {
    if (v.size() != w.size() || u.size() != v.size()) {
        throw std::invalid_argument("momentum_axpy_values: size mismatch");
    }
    momentum_pass(w, mom, v, a, [&](auto lanes, auto one) {
        const std::size_t n = w.size();
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) lanes(i, vec4::load(u.data() + i));
        for (; i < n; ++i) one(i, u[i]);
    });
}

void momentum_axpy_values(std::span<float> w, float mom, std::span<float> v,
                          SparseUpdate u, float a) {
    if (v.size() != w.size()) {
        throw std::invalid_argument("momentum_axpy_values: size mismatch");
    }
    check_update(u, w.size(), "momentum_axpy_values");
    // mom * +0 + +0 is a zero that snaps to +0, and w + a * +0 = w + -0 = w
    // when a is finite with its sign bit set: then an element with a +0
    // velocity and no entry keeps its bits, and a chunk of them is only
    // read. Most of a gTop-k model's velocities are +0 (a coordinate gets
    // one only once the global top-k selects it).
    const bool skip = w.size() >= kSkipMinSize && std::isfinite(mom) && std::isfinite(a) &&
                      std::signbit(a);
    const float* const vs = v.data();
    momentum_pass(w, mom, v, a, [&](auto lanes, auto one) {
        const std::size_t n = w.size();
        const std::size_t n4 = n & ~std::size_t{3};
        const std::size_t nnz = u.indices.size();
        const auto at = [&u](std::size_t j) { return static_cast<std::size_t>(u.indices[j]); };
        const i32x4 lane_id{0, 1, 2, 3};
        std::size_t i = 0;
        std::size_t j = 0;  // the first entry not yet applied
        // Four-lane chunks on the dense pass's grid: a run with u = +0 up
        // to the chunk holding the next entry, then that chunk with its
        // entries blended in.
        while (i < n4) {
            const std::size_t end = j < nnz ? std::min(at(j) & ~std::size_t{3}, n4) : n4;
            for (; skip && i + kSkipChunk <= end; i += kSkipChunk) {
                if (all_positive_zero(vs + i)) continue;
                for (std::size_t l = 0; l < kSkipChunk; l += 4) lanes(i + l);
            }
            for (; i < end; i += 4) lanes(i);
            if (i == n4) break;
            vec4::f32x4 x{};
            for (; j < nnz && at(j) < i + 4; ++j) {
                const auto lane = static_cast<std::int32_t>(at(j) - i);
                x = lane_id == lane ? vec4::splat(u.values[j]) : x;
            }
            lanes(i, x);
            i += 4;
        }
        for (; i < n; ++i) one(i, j < nnz && at(j) == i ? u.values[j++] : 0.0f);
    });
}

void axpy_values(std::span<float> w, float a, SparseUpdate u) {
    check_update(u, w.size(), "axpy_values");
    for (std::size_t j = 0; j < u.indices.size(); ++j) {
        w[static_cast<std::size_t>(u.indices[j])] += a * u.values[j];
    }
}

void TrainableModel::set_flat_params(std::span<const float> w) {
    const std::span<float> dst = values();
    if (w.size() != dst.size()) throw std::invalid_argument("set_flat_params: size mismatch");
    std::ranges::copy(w, dst.begin());
}

double TrainableModel::train_step_fold(const Batch& batch, GradSink& sink) {
    const double loss = train_step_gradients(batch);
    sink.fold(0, grads());
    return loss;
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
