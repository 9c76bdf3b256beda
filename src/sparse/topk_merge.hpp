// The paper's Definition 1: the Top-k merge operator ⊤.
//
//   a ⊤ b = topk(a + b, k)
//
// i.e. element-wise sum of two k-sparse vectors followed by re-selection of
// the k largest-magnitude entries of the sum. The gTop-k tree reduction is
// a left fold of ⊤ across all workers' sparse gradients. ⊤ is commutative
// (sum and the deterministic selection order are symmetric) but NOT
// associative in general — tests document both properties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/sparse_gradient.hpp"

namespace gtopk::sparse {

/// a ⊤ b with output sparsity k. Inputs may have any nnz (the tree uses
/// nnz == k throughout, but the fold for non-power-of-two worlds can see
/// fewer). Result is canonical with nnz == min(k, nnz(a + b)).
SparseGradient topk_merge(const SparseGradient& a, const SparseGradient& b,
                          std::size_t k);

/// Scratch for topk_merge_into: the merged entries as magnitude_order_keys
/// and values, and keep_largest_keys' copy of the keys. One instance per
/// worker; after the first merge the vectors stay at ~2k capacity and the
/// log2(P) rounds of a gTop-k tree allocate nothing.
struct MergeScratch {
    std::vector<std::uint64_t> keys;
    std::vector<float> val;
    std::vector<std::uint64_t> work;
};

/// acc = acc ⊤ b, in place. `b` arrives as (dense_size, indices, values)
/// spans so a zero-copy SparseGradientView can be consumed directly off the
/// wire. Two-pointer merge of the sorted index lists into `scratch`, then
/// keep_largest_keys re-selects the k largest under the shared
/// deterministic order, already in index order — bit-identical to
/// topk_merge(acc, b, k) (the order is total, so the selected set is
/// unique), with every temporary reused.
void topk_merge_into(SparseGradient& acc, std::int64_t b_dense_size,
                     std::span<const std::int32_t> b_indices,
                     std::span<const float> b_values, std::size_t k,
                     MergeScratch& scratch);

/// topk(g, k) for an already-sparse vector — used for re-sparsifying an
/// aggregated result (the "select k from k*P" variant of the paper's
/// Fig. 1, and Algorithm 2's global selection).
SparseGradient sparse_topk(const SparseGradient& g, std::size_t k);

}  // namespace gtopk::sparse
