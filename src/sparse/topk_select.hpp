// Top-k selection: pick the k largest-magnitude entries of a dense vector
// (Algorithm 1 lines 5-7 of the paper).
//
// Ordering is total and deterministic: larger |value| first, ties broken by
// smaller index. Determinism matters because every worker must agree on the
// global selection bit-for-bit for the replicas to stay consistent.
//
// Three strategies are provided; they return identical results and are
// compared by bench_ablation_topk_select:
//   NthElement  introselect on an index permutation, O(m) expected
//   Heap        bounded min-heap of size k, O(m log k) — wins for k << m
//   FullSort    O(m log m) reference
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/sparse_gradient.hpp"

namespace gtopk::sparse {

enum class TopkStrategy { NthElement, Heap, FullSort };

/// Comparator for the deterministic |value|-descending, index-ascending
/// total order shared by all strategies.
inline bool magnitude_less(float va, std::int32_t ia, float vb, std::int32_t ib) {
    const float ma = va < 0 ? -va : va;
    const float mb = vb < 0 ? -vb : vb;
    if (ma != mb) return ma < mb;
    return ia > ib;  // smaller index wins ties, so it is "greater"
}

/// Select min(k, nnz-meaningful) entries; exact zeros are still selectable
/// (the paper selects by threshold on |G|; we keep exact-k semantics).
/// Result is canonical (indices sorted ascending).
SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkStrategy strategy = TopkStrategy::NthElement);

/// Bins of the magnitude histogram behind the workspace path: the key is
/// the float's bit pattern with the sign cleared, shifted right by
/// kHistogramShift (8 exponent bits + 3 mantissa bits, ~9% wide bins). For
/// finite values the key is monotone in |value|; keys of Inf and NaN land
/// in the top 8 bins.
inline constexpr int kHistogramShift = 20;
inline constexpr std::size_t kHistogramBins = std::size_t{1} << (31 - kHistogramShift);

/// Scratch reused across selection calls: the magnitude histogram, the
/// candidate index buffer, and the magnitude buffer of
/// kth_largest_magnitude. One workspace per worker thread; the vectors grow
/// to the largest size seen and stay there.
struct TopkWorkspace {
    std::array<std::uint32_t, kHistogramBins> hist{};
    std::vector<std::int32_t> perm;
    std::vector<float> mags;
};

/// Workspace-reusing selection, identical results to the one-shot overload:
/// the exact histogram cut. One pass counts the magnitude keys, a scan from
/// the top bin finds the bin holding the k-th entry, every index in that
/// bin or above becomes a candidate (a superset of the top-k), and the
/// magnitude_less introselect runs on the candidates only. Throws
/// std::domain_error when `dense` holds Inf or NaN, which have no place in
/// the magnitude order. (Heap and FullSort live only in the one-shot
/// overload, as references for the benches and property tests.)
SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws);

/// Same, writing into `out` (indices/values capacity reused across calls).
void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out);

/// The paper's threshold formulation (Line 5-6 of Algorithm 1): returns the
/// kth largest |value| of `dense` (0 when k == 0 or the vector is empty).
float kth_largest_magnitude(std::span<const float> dense, std::size_t k);

/// Workspace-reusing variant: the magnitude scratch lives in `ws` instead
/// of being a fresh m-float allocation per call.
float kth_largest_magnitude(std::span<const float> dense, std::size_t k,
                            TopkWorkspace& ws);

/// Zero out the selected entries of `dense` in place — the residual update
/// `G ⊙ ¬Mask` (Line 8 of Algorithm 1).
void zero_selected(std::span<float> dense, const SparseGradient& selected);

/// Put back every locally selected entry whose index did not survive the
/// global selection — `residual += local ⊙ ¬gMask` (Line 10 of Algorithm
/// 4). `global_indices` is strictly increasing and, like `local`, indexes
/// `residual`.
void return_unselected(std::span<float> residual, const SparseGradient& local,
                       std::span<const std::int32_t> global_indices);

}  // namespace gtopk::sparse
