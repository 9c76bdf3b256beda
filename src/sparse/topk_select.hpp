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
#include <bit>
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

/// The entry (v, i) as one key of the same order: the sign-cleared bits of
/// v above the complemented index. For finite values, comparing keys as
/// unsigned integers is exactly magnitude_less — a larger |v| has larger
/// bits (±0 share key 0), and of two equal magnitudes the smaller index has
/// the larger complement.
inline std::uint64_t magnitude_order_key(float v, std::int32_t i) {
    return std::uint64_t{std::bit_cast<std::uint32_t>(v) & 0x7fffffffu} << 32 |
           static_cast<std::uint32_t>(~i);
}

/// The index a magnitude_order_key was built from.
inline std::int32_t key_index(std::uint64_t key) {
    return static_cast<std::int32_t>(~static_cast<std::uint32_t>(key));
}

/// out = the min(k, n) entries with the largest of n distinct keys, each
/// with its index (key_index) and its value (values[j] for keys[j]), in
/// the order given — ascending index when the keys come in that order, so
/// the result needs no sort. An introselect on `work`, a copy of the keys,
/// finds the k-th largest key K; one pass then keeps every key >= K.
/// Sets out's indices and values, not its dense_size.
void keep_largest_keys(std::span<const std::uint64_t> keys, std::span<const float> values,
                       std::size_t k, std::vector<std::uint64_t>& work,
                       SparseGradient& out);

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

/// Scratch reused across selection calls, one per worker thread and
/// selected vector (the trainer keeps one per bucket). The vectors grow to
/// the largest size seen and stay there.
///
/// A count fills it: `lanes` holds four interleaved sub-histograms of the
/// magnitude keys (lanes[4 * bin + j] counts the entries that went through
/// vector lane j), so runs of equal keys increment four counters in turn
/// rather than serializing on one; `block_max[b]` holds the largest key of
/// entries [64 b, 64 b + 64); `max_key` the largest key counted (a
/// NaN's key may be left out of both; the histogram always counts it).
struct TopkWorkspace {
    std::array<std::uint32_t, 4 * kHistogramBins> lanes{};
    std::vector<std::uint32_t> block_max;
    std::uint32_t max_key = 0;
    std::size_t count_size = 0;  // the size begin_count announced
    std::size_t counted = 0;     // entries counted since
    bool count_fresh = false;    // no select has consumed the count yet
    // The cut's candidate positions, their keys and values, and
    // keep_largest_keys' copy of the keys.
    std::vector<std::int32_t> candidates;
    std::vector<std::uint64_t> keys;
    std::vector<float> values;
    std::vector<std::uint64_t> key_work;
};

/// The exact histogram cut runs in two halves, so that counting rides on
/// the pass that produces the vector (Alg. 4 line 4 plus line 5's
/// histogram):
///
///   begin_count(ws, m);                         // reset the count
///   accumulate_counted(dense, at, src, ws);     // per segment, covering
///   ...                                         // each entry once
///   topk_select_counted(dense, k, ws, out);     // cut, consume the count
///
/// The segments may come in any order and any lengths: a folded train step
/// counts a bucket row by row as backward finishes each row, tensors last
/// to first (train::ResidualFold), and gets the bits, block maxima and
/// selection of one accumulate over the whole span. begin_count clears the
/// histogram bins the last count used and sizes the block maxima for an
/// m-entry vector.
void begin_count(TopkWorkspace& ws, std::size_t size);

/// dense[at + i] += src[i] for every i, four lanes at a time, counting each
/// sum's magnitude key into the lane histograms and the block maxima. Each
/// element gets exactly the scalar `d += g`, so the bits are those of a
/// plain accumulate. Throws std::logic_error unless a begin_count for
/// dense.size() came after the last select, std::out_of_range when the
/// segment overruns `dense`.
void accumulate_counted(std::span<float> dense, std::size_t at,
                        std::span<const float> src, TopkWorkspace& ws);

/// The exact top-k of the counted `dense`, identical to the one-shot
/// topk_select. A scan from the top counted bin down sums the four lanes of
/// each bin until the suffix count reaches k; that bin b is the cut. Every
/// entry in bin b or above is a candidate (a superset of the top-k); only
/// the blocks whose maximum key reaches bin b are scanned for them, in
/// ascending index order, and keep_largest_keys cuts the candidates to k.
/// Consumes the count: throws std::logic_error unless
/// every entry of `dense` was counted since the last begin_count and no
/// select has run since, or when `dense` changed after its count so that
/// its candidates no longer match the count. Throws std::domain_error when
/// `dense` holds Inf or NaN (a finite sum that overflowed included), which
/// have no place in the magnitude order. k == 0 selects nothing, k >= m
/// everything.
void topk_select_counted(std::span<const float> dense, std::size_t k,
                         TopkWorkspace& ws, SparseGradient& out);

/// Workspace-reusing selection of a vector nobody counted: begin_count, a
/// count-only pass, then topk_select_counted — identical results to the
/// one-shot overload. (Heap and FullSort live only in the one-shot
/// overload, as references for the benches and property tests.)
SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws);

/// Same, writing into `out` (indices/values capacity reused across calls).
void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out);

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
