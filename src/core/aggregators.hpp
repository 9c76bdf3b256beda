// Gradient aggregation algorithms — the heart of the paper.
//
// All three take each worker's local contribution and produce, on EVERY
// worker, an identical aggregate used for the model update:
//
//   dense_allreduce       Eq. 3's full sum via ring AllReduce (Eq. 5 cost).
//   topk_allreduce        Algorithm 1 lines 12-21: AllGather the [V, I]
//                         pairs and sum locally — O(kP) traffic.
//   gtopk_allreduce       Algorithm 3: distance-doubling tree of ⊤ merges
//                         to rank 0, then broadcast — O(k logP) traffic.
//   naive_gtopk_allreduce Algorithm 2: AllGather, sum, then global top-k —
//                         the reference gtopk_allreduce must match exactly.
//
// Sums are returned UN-averaged (no 1/P); trainers decide the scaling, as
// the paper's Algorithm 4 applies eta directly to the selected values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "collectives/collectives.hpp"
#include "comm/communicator.hpp"
#include "sparse/sparse_gradient.hpp"
#include "sparse/topk_merge.hpp"

namespace gtopk::obs {
class Counter;
class Histogram;
class Tracer;
}  // namespace gtopk::obs

namespace gtopk::core {

using collectives::AllgatherAlgo;
using collectives::AllreduceAlgo;
using collectives::BcastAlgo;
using comm::Communicator;
using sparse::SparseGradient;

/// Handles of the gTop-k hot-path metrics, resolved once rather than looked
/// up by name under the registry mutex at every merge round
/// (obs/metrics.hpp). All null without a tracer.
struct GtopkMetrics {
    obs::Counter* merge_rounds = nullptr;
    obs::Histogram* round_nnz = nullptr;
    obs::Counter* invocations = nullptr;

    static GtopkMetrics resolve(obs::Tracer* tracer);
    /// One tree-merge round (phase 1) left `nnz` entries in the accumulator.
    void merged(std::size_t nnz) const;
    /// One collective completed.
    void invoked() const;
};

/// Cross-invocation scratch for gtopk_allreduce: merge-round temporaries,
/// the broadcast wire buffer and the metric handles of the last tracer
/// seen. Optional — pass one per worker via GtopkOptions::workspace and the
/// per-iteration aggregation stops allocating and looking metrics up;
/// without it a local instance amortizes within one call.
struct GtopkWorkspace {
    sparse::MergeScratch merge;
    std::vector<std::byte> wire;
    GtopkMetrics metrics;
    const obs::Tracer* metrics_tracer = nullptr;

    /// `metrics`, re-resolved when `tracer` is not the one they belong to.
    /// The handles point into that tracer's registry, so a workspace must
    /// not outlive the tracer it serves (one per worker per run does not).
    const GtopkMetrics& metrics_for(obs::Tracer* tracer);
};

/// Knobs for gtopk_allreduce, exposed for the ablation benches.
struct GtopkOptions {
    BcastAlgo bcast = BcastAlgo::BinomialTree;
    /// Allocation-free wire path: serialize into pooled buffers, receive
    /// via zero-copy views, merge in place. Off = the owning
    /// serialize/deserialize/topk_merge path, kept as the A/B baseline for
    /// bench_hotpath. Results are bit-identical either way.
    bool pooled = true;
    GtopkWorkspace* workspace = nullptr;
};

/// Result of a global-top-k aggregation. `global` holds the k
/// largest-|.|-entries of the sum of all workers' sparse gradients (same on
/// every rank, bit-identical). Trainers derive the paper's gMask from
/// `global.indices`.
struct GtopkResult {
    SparseGradient global;
};

/// Algorithm 3 (gTopKAllReduce). `local` is this worker's k-sparse
/// gradient; `k` the output sparsity. Works for any world size (non-power-
/// of-two worlds fold the excess ranks into the tree base first, an
/// extension the paper leaves out by assuming P = 2^j).
GtopkResult gtopk_allreduce(Communicator& comm, const SparseGradient& local,
                            std::size_t k, const GtopkOptions& options = {});

/// Algorithm 2 (naive gTop-k): AllGather everything, sum, select globally.
/// Identical output to gtopk_allreduce; O(kP) traffic. Kept as the
/// correctness oracle and for the paper's Fig. 2 illustration.
GtopkResult naive_gtopk_allreduce(Communicator& comm, const SparseGradient& local,
                                  std::size_t k);

/// Algorithm 1's TopKAllReduce: returns the dense (size m) sum of all
/// workers' sparse gradients. O(kP) traffic via AllGather.
std::vector<float> topk_allreduce(Communicator& comm, const SparseGradient& local,
                                  AllgatherAlgo algo = AllgatherAlgo::RecursiveDoubling);

/// DenseAllReduce: plain sum of the full dense gradient.
std::vector<float> dense_allreduce(Communicator& comm, std::span<const float> grad,
                                   AllreduceAlgo algo = AllreduceAlgo::Ring);

}  // namespace gtopk::core
