#include "train/bucketer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gtopk::train {

std::vector<GradBucket> fuse_buckets(std::span<const std::size_t> seg_offsets,
                                     std::int64_t bucket_bytes) {
    if (seg_offsets.size() < 2) return {};
    for (std::size_t i = 1; i < seg_offsets.size(); ++i) {
        if (seg_offsets[i] < seg_offsets[i - 1]) {
            throw std::invalid_argument("fuse_buckets: offsets must ascend");
        }
    }
    const int num_segments = static_cast<int>(seg_offsets.size()) - 1;
    const std::size_t min_elems =
        bucket_bytes <= 0
            ? 0
            : (static_cast<std::size_t>(bucket_bytes) + sizeof(float) - 1) /
                  sizeof(float);

    // Walk tensors in backward (gradient-ready) order, closing a bucket as
    // soon as it reaches the fusion threshold. The LAST bucket closed (the
    // front-most one) may stay under the threshold — there is nothing left
    // to fuse it with.
    std::vector<GradBucket> buckets;
    int last = num_segments - 1;
    std::size_t accumulated = 0;
    for (int s = num_segments - 1; s >= 0; --s) {
        accumulated += seg_offsets[static_cast<std::size_t>(s) + 1] -
                       seg_offsets[static_cast<std::size_t>(s)];
        const bool close = min_elems == 0 || accumulated >= min_elems || s == 0;
        if (!close) continue;
        GradBucket b;
        b.begin = seg_offsets[static_cast<std::size_t>(s)];
        b.end = seg_offsets[static_cast<std::size_t>(last) + 1];
        b.first_segment = s;
        b.last_segment = last;
        buckets.push_back(b);
        last = s - 1;
        accumulated = 0;
    }
    // Emit in forward order; priority = forward index (front bucket first).
    std::reverse(buckets.begin(), buckets.end());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        buckets[i].priority = static_cast<int>(i);
    }
    return buckets;
}

std::vector<double> bucket_ready_fractions(std::span<const GradBucket> buckets,
                                           std::size_t total_elems) {
    std::vector<double> ready(buckets.size(), 1.0);
    if (total_elems == 0) return ready;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        ready[i] = static_cast<double>(total_elems - buckets[i].begin) /
                   static_cast<double>(total_elems);
    }
    return ready;
}

void ResidualFold::begin() {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        sparse::begin_count(ws_[b], buckets_[b].size());
    }
}

void ResidualFold::fold(std::size_t at, std::span<const float> g) {
    auto b = static_cast<std::size_t>(
        std::ranges::upper_bound(buckets_, at, {}, &GradBucket::end) - buckets_.begin());
    while (!g.empty()) {
        if (b == buckets_.size()) {
            throw std::out_of_range("ResidualFold: gradient element " + std::to_string(at) +
                                    " lies past the last bucket");
        }
        const GradBucket& bk = buckets_[b];
        const std::size_t n = std::min(g.size(), bk.end - at);
        sparse::accumulate_counted(residual_.subspan(bk.begin, bk.size()), at - bk.begin,
                                   g.first(n), ws_[b]);
        at += n;
        g = g.subspan(n);
        ++b;
    }
}

}  // namespace gtopk::train
