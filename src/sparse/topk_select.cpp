#include "sparse/topk_select.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

namespace gtopk::sparse {

namespace {

SparseGradient finalize(std::span<const float> dense,
                        std::vector<std::int32_t> picked) {
    std::sort(picked.begin(), picked.end());
    SparseGradient g;
    g.dense_size = static_cast<std::int64_t>(dense.size());
    g.indices = std::move(picked);
    g.values.reserve(g.indices.size());
    for (std::int32_t idx : g.indices) {
        g.values.push_back(dense[static_cast<std::size_t>(idx)]);
    }
    return g;
}

SparseGradient topk_nth_element(std::span<const float> dense, std::size_t k) {
    std::vector<std::int32_t> idx(dense.size());
    std::iota(idx.begin(), idx.end(), 0);
    auto greater = [&](std::int32_t a, std::int32_t b) {
        // "a before b" when a is strictly greater in the magnitude order.
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     idx.end(), greater);
    idx.resize(k);
    return finalize(dense, std::move(idx));
}

SparseGradient topk_heap(std::span<const float> dense, std::size_t k) {
    // Min-heap of the current best k, keyed by the magnitude order, so the
    // weakest kept element sits on top and is evicted first.
    auto weaker = [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };
    std::priority_queue<std::int32_t, std::vector<std::int32_t>, decltype(weaker)> heap(
        weaker);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        const auto idx = static_cast<std::int32_t>(i);
        if (heap.size() < k) {
            heap.push(idx);
        } else if (magnitude_less(dense[static_cast<std::size_t>(heap.top())], heap.top(),
                                  dense[i], idx)) {
            heap.pop();
            heap.push(idx);
        }
    }
    std::vector<std::int32_t> picked;
    picked.reserve(heap.size());
    while (!heap.empty()) {
        picked.push_back(heap.top());
        heap.pop();
    }
    return finalize(dense, std::move(picked));
}

SparseGradient topk_full_sort(std::span<const float> dense, std::size_t k) {
    std::vector<std::int32_t> idx(dense.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    });
    idx.resize(k);
    return finalize(dense, std::move(idx));
}

/// Fill `out` from the picked index positions `picked` (sorted in place).
void finalize_into(std::span<const float> dense, std::span<std::int32_t> picked,
                   SparseGradient& out) {
    std::sort(picked.begin(), picked.end());
    out.dense_size = static_cast<std::int64_t>(dense.size());
    out.indices.assign(picked.begin(), picked.end());
    out.values.clear();
    out.values.reserve(picked.size());
    for (std::int32_t idx : picked) {
        out.values.push_back(dense[static_cast<std::size_t>(idx)]);
    }
}

/// First histogram bin of the Inf/NaN keys (0x7f800000 and up).
constexpr std::size_t kNonFiniteBin = 0x7f800000u >> kHistogramShift;

/// Sign-cleared bit pattern of `v`: for finite floats, a larger key means
/// a larger |v|, and ±0 share key 0 just as they compare equal.
inline std::uint32_t magnitude_key(float v) {
    return std::bit_cast<std::uint32_t>(v) & 0x7fffffffu;
}

/// Exact histogram cut (0 < k < m). With b the highest bin whose suffix
/// count reaches k, every entry in a bin above b outranks every entry in b
/// or below, so an entry below b has at least k entries ahead of it and
/// cannot be in the top-k: the candidates (bin >= b) hold the exact top-k,
/// and selecting among them under magnitude_less gives the full path's
/// result.
void histogram_select_into(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws, SparseGradient& out) {
    ws.hist.fill(0);
    for (const float v : dense) ++ws.hist[magnitude_key(v) >> kHistogramShift];

    std::size_t non_finite = 0;
    for (std::size_t bin = kNonFiniteBin; bin < kHistogramBins; ++bin) {
        non_finite += ws.hist[bin];
    }
    if (non_finite > 0) {
        throw std::domain_error("topk_select: " + std::to_string(non_finite) +
                                " non-finite entries in a dense vector of size " +
                                std::to_string(dense.size()));
    }

    std::size_t cut_bin = kNonFiniteBin;
    std::size_t candidates = 0;
    while (candidates < k) candidates += ws.hist[--cut_bin];

    // Branchless compaction: every index is written, only candidates
    // advance the cursor, so the buffer needs one slot of slack.
    const std::uint32_t cut_key = static_cast<std::uint32_t>(cut_bin) << kHistogramShift;
    ws.perm.resize(candidates + 1);
    std::int32_t* const cand = ws.perm.data();
    std::size_t n = 0;
    for (std::size_t i = 0; i < dense.size(); ++i) {
        cand[n] = static_cast<std::int32_t>(i);
        n += magnitude_key(dense[i]) >= cut_key ? 1 : 0;
    }

    auto greater = [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };
    std::nth_element(cand, cand + static_cast<std::ptrdiff_t>(k - 1), cand + candidates,
                     greater);
    finalize_into(dense, std::span<std::int32_t>(cand, k), out);
}

}  // namespace

SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkStrategy strategy) {
    if (k >= dense.size()) {
        // Degenerate: keep everything.
        SparseGradient g;
        g.dense_size = static_cast<std::int64_t>(dense.size());
        g.indices.resize(dense.size());
        std::iota(g.indices.begin(), g.indices.end(), 0);
        g.values.assign(dense.begin(), dense.end());
        return g;
    }
    if (k == 0) {
        SparseGradient g;
        g.dense_size = static_cast<std::int64_t>(dense.size());
        return g;
    }
    switch (strategy) {
        case TopkStrategy::NthElement: return topk_nth_element(dense, k);
        case TopkStrategy::Heap: return topk_heap(dense, k);
        case TopkStrategy::FullSort: return topk_full_sort(dense, k);
    }
    throw std::logic_error("unknown TopkStrategy");
}

void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out) {
    if (k >= dense.size()) {
        // Degenerate: keep everything.
        out.dense_size = static_cast<std::int64_t>(dense.size());
        out.indices.resize(dense.size());
        std::iota(out.indices.begin(), out.indices.end(), 0);
        out.values.assign(dense.begin(), dense.end());
        return;
    }
    if (k == 0) {
        out = SparseGradient{};
        out.dense_size = static_cast<std::int64_t>(dense.size());
        return;
    }
    histogram_select_into(dense, k, ws, out);
}

SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws) {
    SparseGradient out;
    topk_select_into(dense, k, ws, out);
    return out;
}

float kth_largest_magnitude(std::span<const float> dense, std::size_t k) {
    if (k == 0 || dense.empty()) return 0.0f;
    k = std::min(k, dense.size());
    std::vector<float> mags(dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) mags[i] = std::abs(dense[i]);
    std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     mags.end(), std::greater<float>());
    return mags[k - 1];
}

float kth_largest_magnitude(std::span<const float> dense, std::size_t k,
                            TopkWorkspace& ws) {
    if (k == 0 || dense.empty()) return 0.0f;
    k = std::min(k, dense.size());
    ws.mags.resize(dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) ws.mags[i] = std::abs(dense[i]);
    std::nth_element(ws.mags.begin(),
                     ws.mags.begin() + static_cast<std::ptrdiff_t>(k - 1), ws.mags.end(),
                     std::greater<float>());
    return ws.mags[k - 1];
}

void zero_selected(std::span<float> dense, const SparseGradient& selected) {
    for (std::int32_t idx : selected.indices) {
        dense[static_cast<std::size_t>(idx)] = 0.0f;
    }
}

void return_unselected(std::span<float> residual, const SparseGradient& local,
                       std::span<const std::int32_t> global_indices) {
    std::size_t gi = 0;
    for (std::size_t li = 0; li < local.nnz(); ++li) {
        const std::int32_t idx = local.indices[li];
        while (gi < global_indices.size() && global_indices[gi] < idx) ++gi;
        if (gi == global_indices.size() || global_indices[gi] != idx) {
            residual[static_cast<std::size_t>(idx)] += local.values[li];
        }
    }
}

}  // namespace gtopk::sparse
