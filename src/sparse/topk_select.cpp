#include "sparse/topk_select.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/vec4.hpp"

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

/// Entries per block of the counted vector's block maxima, aligned to the
/// vector's start.
constexpr std::size_t kCountBlock = 64;

/// Smallest magnitude key of Inf and NaN (0x7f800000 and up), and the
/// first histogram bin of those keys.
constexpr std::uint32_t kNonFiniteKey = 0x7f800000u;
constexpr std::size_t kNonFiniteBin = kNonFiniteKey >> kHistogramShift;

/// Sign-cleared bit pattern of `v`: for finite floats, a larger key means
/// a larger |v|, and ±0 share key 0 just as they compare equal.
inline std::uint32_t magnitude_key(float v) {
    return std::bit_cast<std::uint32_t>(v) & 0x7fffffffu;
}

using u32x4 = std::uint32_t __attribute__((vector_size(16)));

/// Count the keys of dense[at, at + n) into `ws`; with kAdd, first
/// dense[at + i] += src[i] and store the sum. The chunks follow the block
/// grid of `dense`, so each one ends in one update of its block's maximum.
template <bool kAdd>
void count_segment(const float* dense, float* sums, std::size_t at, const float* src,
                   std::size_t n, TopkWorkspace& ws) {
    std::uint32_t* const lane0 = ws.lanes.data();
    std::uint32_t* const lane1 = lane0 + 1;
    std::uint32_t* const lane2 = lane0 + 2;
    std::uint32_t* const lane3 = lane0 + 3;
    std::size_t i = at;
    const std::size_t end = at + n;
    std::uint32_t seg_max = 0;
    while (i < end) {
        const std::size_t block = i / kCountBlock;
        const std::size_t chunk_end = std::min(end, (block + 1) * kCountBlock);
        vec4::f32x4 vmax{};
        for (; i + 4 <= chunk_end; i += 4) {
            vec4::f32x4 v = vec4::load(dense + i);
            if constexpr (kAdd) {
                v = v + vec4::load(src + (i - at));
                vec4::store(sums + i, v);
            }
            const u32x4 key = std::bit_cast<u32x4>(v) & 0x7fffffffu;
            // |v| as a float orders like its key (one maxps). A NaN may be
            // missed here, but never by the histogram's non-finite bins.
            const vec4::f32x4 mag = std::bit_cast<vec4::f32x4>(key);
            vmax = mag > vmax ? mag : vmax;
            // 4 * bin: the offset of the bin's lane 0.
            const u32x4 at4 = (key >> (kHistogramShift - 2)) & ~3u;
            ++lane0[at4[0]];
            ++lane1[at4[1]];
            ++lane2[at4[2]];
            ++lane3[at4[3]];
        }
        const u32x4 kmax = std::bit_cast<u32x4>(vmax);
        std::uint32_t chunk_max =
            std::max(std::max(kmax[0], kmax[1]), std::max(kmax[2], kmax[3]));
        for (; i < chunk_end; ++i) {
            float v = dense[i];
            if constexpr (kAdd) {
                v += src[i - at];
                sums[i] = v;
            }
            const std::uint32_t key = magnitude_key(v);
            chunk_max = std::max(chunk_max, key);
            ++lane0[4 * (key >> kHistogramShift)];
        }
        ws.block_max[block] = std::max(ws.block_max[block], chunk_max);
        seg_max = std::max(seg_max, chunk_max);
    }
    ws.max_key = std::max(ws.max_key, seg_max);
    ws.counted += n;
}

std::uint32_t bin_count(const TopkWorkspace& ws, std::size_t bin) {
    const std::uint32_t* l = ws.lanes.data() + 4 * bin;
    return l[0] + l[1] + l[2] + l[3];
}

/// The exact histogram cut (0 < k < m) on a consumed count. With b the
/// highest bin whose suffix count reaches k, every entry in a bin above b
/// outranks every entry in b or below, so an entry below b has at least k
/// entries ahead of it and cannot be in the top-k: the candidates
/// (bin >= b) hold the exact top-k, and selecting among them under
/// magnitude_less gives the full path's result. A block whose maximum key
/// is below b holds no candidate, so skipping it leaves the candidate list
/// and its ascending order exactly as a full scan builds them.
void histogram_select_into(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws, SparseGradient& out) {
    std::size_t non_finite = 0;
    for (std::size_t bin = kNonFiniteBin; bin < kHistogramBins; ++bin) {
        non_finite += bin_count(ws, bin);
    }
    if (non_finite > 0) {
        throw std::domain_error("topk_select: " + std::to_string(non_finite) +
                                " non-finite entries in a dense vector of size " +
                                std::to_string(dense.size()));
    }

    // Bins above the largest counted key are empty: start the scan there.
    std::size_t cut_bin = (ws.max_key >> kHistogramShift) + 1;
    std::size_t candidates = 0;
    while (candidates < k) candidates += bin_count(ws, --cut_bin);

    // Branchless compaction within a block: every position is written,
    // only candidates advance the cursor. One block of slack keeps a vector
    // changed since its count from writing past the buffer before the
    // per-block check catches it. Keys are built for the candidates only.
    const std::uint32_t cut_key = static_cast<std::uint32_t>(cut_bin) << kHistogramShift;
    ws.candidates.resize(candidates + kCountBlock);
    std::int32_t* const cand = ws.candidates.data();
    std::size_t n = 0;
    for (std::size_t b = 0; b < ws.block_max.size() && n <= candidates; ++b) {
        if (ws.block_max[b] < cut_key) continue;
        const std::size_t end = std::min(dense.size(), (b + 1) * kCountBlock);
        for (std::size_t i = b * kCountBlock; i < end; ++i) {
            cand[n] = static_cast<std::int32_t>(i);
            n += magnitude_key(dense[i]) >= cut_key ? 1 : 0;
        }
    }
    if (n != candidates) {
        throw std::logic_error("topk_select_counted: the vector changed since its count");
    }
    ws.keys.resize(candidates);
    ws.values.resize(candidates);
    for (std::size_t j = 0; j < candidates; ++j) {
        const float v = dense[static_cast<std::size_t>(cand[j])];
        ws.keys[j] = magnitude_order_key(v, cand[j]);
        ws.values[j] = v;
    }
    out.dense_size = static_cast<std::int64_t>(dense.size());
    keep_largest_keys(ws.keys, ws.values, k, ws.key_work, out);
}

}  // namespace

void keep_largest_keys(std::span<const std::uint64_t> keys, std::span<const float> values,
                       std::size_t k, std::vector<std::uint64_t>& work,
                       SparseGradient& out) {
    const std::size_t n = keys.size();
    const std::size_t kept = std::min(k, n);
    out.indices.resize(kept);
    out.values.resize(kept);
    std::int32_t* const idx = out.indices.data();
    float* const val = out.values.data();
    if (kept == n) {
        for (std::size_t j = 0; j < n; ++j) {
            idx[j] = key_index(keys[j]);
            val[j] = values[j];
        }
        return;
    }
    if (kept == 0) return;
    work.assign(keys.begin(), keys.end());
    const auto kth = work.begin() + static_cast<std::ptrdiff_t>(n - k);
    std::nth_element(work.begin(), kth, work.end());
    const std::uint64_t cut = *kth;
    // The keys being distinct, exactly k reach the cut: the cursor stops at
    // k and every write lands in [0, k). The store is unconditional, only
    // the advance depends on the key.
    for (std::size_t j = 0, m = 0; m < k; ++j) {
        idx[m] = key_index(keys[j]);
        val[m] = values[j];
        m += keys[j] >= cut ? 1 : 0;
    }
}

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

void begin_count(TopkWorkspace& ws, std::size_t size) {
    // Every finite bin above max_key's is still zero from the last clear
    // (max_key may miss a NaN, so the non-finite bins are always cleared).
    std::fill_n(ws.lanes.begin(), 4 * ((ws.max_key >> kHistogramShift) + 1), 0u);
    std::fill(ws.lanes.begin() + 4 * kNonFiniteBin, ws.lanes.end(), 0u);
    ws.max_key = 0;
    ws.block_max.assign((size + kCountBlock - 1) / kCountBlock, 0u);
    ws.count_size = size;
    ws.counted = 0;
    ws.count_fresh = true;
}

void accumulate_counted(std::span<float> dense, std::size_t at,
                        std::span<const float> src, TopkWorkspace& ws) {
    if (!ws.count_fresh || ws.count_size != dense.size()) {
        throw std::logic_error(
            "accumulate_counted: no begin_count for a vector of size " +
            std::to_string(dense.size()));
    }
    if (at > dense.size() || src.size() > dense.size() - at) {
        throw std::out_of_range("accumulate_counted: segment [" + std::to_string(at) +
                                ", +" + std::to_string(src.size()) +
                                ") overruns a vector of size " +
                                std::to_string(dense.size()));
    }
    count_segment<true>(dense.data(), dense.data(), at, src.data(), src.size(), ws);
}

void topk_select_counted(std::span<const float> dense, std::size_t k,
                         TopkWorkspace& ws, SparseGradient& out) {
    if (!ws.count_fresh || ws.count_size != dense.size() || ws.counted != dense.size()) {
        throw std::logic_error(
            "topk_select_counted: the vector of size " + std::to_string(dense.size()) +
            " has no complete count since begin_count (or a select consumed it)");
    }
    ws.count_fresh = false;
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

void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out) {
    begin_count(ws, dense.size());
    count_segment<false>(dense.data(), nullptr, 0, nullptr, dense.size(), ws);
    topk_select_counted(dense, k, ws, out);
}

SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws) {
    SparseGradient out;
    topk_select_into(dense, k, ws, out);
    return out;
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
