#include "sparse/topk_merge.hpp"

#include <stdexcept>

#include "sparse/topk_select.hpp"

namespace gtopk::sparse {

SparseGradient sparse_topk(const SparseGradient& g, std::size_t k) {
    if (g.nnz() <= k) return g;
    std::vector<std::uint64_t> keys(g.nnz());
    for (std::size_t j = 0; j < keys.size(); ++j) {
        keys[j] = magnitude_order_key(g.values[j], g.indices[j]);
    }
    std::vector<std::uint64_t> work;
    SparseGradient out;
    out.dense_size = g.dense_size;
    keep_largest_keys(keys, g.values, k, work, out);
    return out;
}

SparseGradient topk_merge(const SparseGradient& a, const SparseGradient& b,
                          std::size_t k) {
    return sparse_topk(add(a, b), k);
}

void topk_merge_into(SparseGradient& acc, std::int64_t b_dense_size,
                     std::span<const std::int32_t> b_indices,
                     std::span<const float> b_values, std::size_t k,
                     MergeScratch& scratch) {
    if (acc.dense_size != b_dense_size) {
        throw std::invalid_argument("topk_merge_into: dense_size mismatch");
    }
    auto& keys = scratch.keys;
    auto& val = scratch.val;
    keys.clear();
    val.clear();

    // Two-pointer merge of the two sorted index lists (duplicates summed),
    // exactly sparse::add but into reused scratch, each entry as its key.
    const auto emit = [&](std::int32_t index, float value) {
        keys.push_back(magnitude_order_key(value, index));
        val.push_back(value);
    };
    const std::size_t an = acc.nnz();
    const std::size_t bn = b_indices.size();
    std::size_t i = 0, j = 0;
    while (i < an || j < bn) {
        if (j >= bn || (i < an && acc.indices[i] < b_indices[j])) {
            emit(acc.indices[i], acc.values[i]);
            ++i;
        } else if (i >= an || b_indices[j] < acc.indices[i]) {
            emit(b_indices[j], b_values[j]);
            ++j;
        } else {
            emit(acc.indices[i], acc.values[i] + b_values[j]);
            ++i;
            ++j;
        }
    }

    // Merged indices are unique, so the keys are distinct and the k
    // largest a unique set, kept in the merged (ascending index) order.
    keep_largest_keys(keys, val, k, scratch.work, acc);
}

}  // namespace gtopk::sparse
