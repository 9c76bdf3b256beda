// Gradient bucketing for overlapped layer-wise gTop-k (DESIGN.md §14).
//
// Backward propagation produces parameter-tensor gradients from the LAST
// tensor to the FIRST, so each tensor's aggregation could start while
// earlier tensors are still computing — but tiny tensors make terrible
// collectives (alpha-dominated). The bucketer fuses CONSECUTIVE tensors,
// walking in backward order, into buckets of at least `bucket_bytes` of
// gradient payload (MG-WFBP-style tensor fusion), and assigns P3-style
// priorities: the front-most bucket — the parameters the NEXT iteration's
// forward pass needs first — gets the highest priority (lowest value).
//
// The ready-time fractions computed here are the ONE definition of "when is
// a bucket's gradient available" shared by the runtime (the trainer advances
// the virtual clock to ready_fraction * t_backward before issuing a bucket's
// collective) and the prediction (perfmodel::overlapped_pipeline consumes
// the same fractions), so the overlap model and the implementation cannot
// drift on what "ready" means.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "sparse/topk_select.hpp"

namespace gtopk::train {

/// One fused communication bucket: a contiguous flat-parameter range
/// covering parameter tensors [first_segment, last_segment].
struct GradBucket {
    std::size_t begin = 0;  // flat element offset, inclusive
    std::size_t end = 0;    // flat element offset, exclusive
    int first_segment = 0;
    int last_segment = 0;
    /// Drain priority: 0 = front-most bucket (needed first by the next
    /// forward pass) = served first.
    int priority = 0;

    std::size_t size() const { return end - begin; }
};

/// Fuse parameter-tensor segments (seg_offsets as produced from
/// model->params(): seg_offsets[s]..seg_offsets[s+1] is tensor s) into
/// buckets of >= bucket_bytes of fp32 gradient payload each, walking in
/// BACKWARD order so fusion follows gradient-ready order. bucket_bytes <= 0
/// keeps one bucket per tensor — with that default the layer-wise
/// trainer's selection and aggregation granularity is exactly the pre-fusion
/// per-tensor behavior. Returned in FORWARD order (ascending offsets) with
/// priority == forward index.
std::vector<GradBucket> fuse_buckets(std::span<const std::size_t> seg_offsets,
                                     std::int64_t bucket_bytes);

/// Fraction of the backward pass completed when each bucket's gradient is
/// ready, indexed like `buckets` (forward order). Backward time is split
/// proportionally to element count (the overlap model's assumption), and
/// backward sweeps back-to-front, so bucket b is ready at
/// (total_elems - b.begin) / total_elems.
std::vector<double> bucket_ready_fractions(std::span<const GradBucket> buckets,
                                           std::size_t total_elems);

/// The GradSink that adds a model's gradient into the error-feedback
/// residual (Alg. 4 line 4), counting line 5's top-k histogram of each
/// bucket on the way: gradient-arena element i lands in residual[i] and in
/// the count of the bucket holding i. The residual and the workspaces are
/// the caller's, indexed like `buckets`, which must tile [0, m) in
/// ascending order.
class ResidualFold final : public nn::GradSink {
public:
    ResidualFold(std::span<float> residual, std::span<const GradBucket> buckets,
                 std::span<sparse::TopkWorkspace> ws)
        : residual_(residual), buckets_(buckets), ws_(ws) {}

    /// Start every bucket's count; a step calls it before its first fold.
    void begin();

    /// residual[at + i] += g[i], one accumulate_counted per bucket the
    /// range touches. Throws std::out_of_range past the last bucket.
    void fold(std::size_t at, std::span<const float> g) override;

private:
    std::span<float> residual_;
    std::span<const GradBucket> buckets_;
    std::span<sparse::TopkWorkspace> ws_;
};

}  // namespace gtopk::train
