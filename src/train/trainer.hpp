// Distributed S-SGD trainers — the paper's Algorithms 1 (Top-k), 2 (naive
// gTop-k), 4 (gTop-k with gTopKAllReduce), plus dense S-SGD (Eq. 3) and the
// Fig. 1 "select k from k*P without residual return" variant.
//
// All variants share one worker loop that differs only in the aggregation
// step; every worker runs the loop on the virtual-time cluster. Replica
// consistency (identical parameters on every rank after every iteration) is
// an invariant tested by the integration suite.
//
// Residual bookkeeping (error feedback), following the paper exactly:
//   G^g_i   = residual + local gradient            (Alg. 4 line 4)
//   local   = top-k(G^g_i)                         (lines 5-7)
//   residual = G^g_i  - local                      (line 8)
//   after aggregation, the locally-selected entries that did NOT survive
//   the global selection are put back:
//   residual += local ⊙ ¬gMask                     (line 10)
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/membership.hpp"
#include "core/aggregators.hpp"
#include "nn/model.hpp"
#include "obs/trace.hpp"
#include "quant/quantizer.hpp"
#include "sparse/selection_policy.hpp"

namespace gtopk::obs {
class Telemetry;
}

namespace gtopk::train {

enum class Algorithm {
    DenseSsgd,          // Eq. 3, ring allreduce on full gradients
    TopkSsgd,           // Algorithm 1
    GtopkSsgd,          // Algorithm 4 (tree gTopKAllReduce)
    NaiveGtopkSsgd,     // Algorithm 2 (AllGather + global re-selection)
    SelectKFromKP,      // Fig. 1 variant: gTop-k without the line-10 put-back
    LayerwiseGtopkSsgd, // paper Sec. VII future work: one gTop-k per
                        // parameter tensor (k_l = rho * m_l), enabling
                        // communication/computation overlap
};

const char* algorithm_name(Algorithm a);

struct TrainConfig {
    Algorithm algorithm = Algorithm::GtopkSsgd;
    int epochs = 10;
    int iters_per_epoch = 50;
    float lr = 0.05f;
    float momentum = 0.9f;
    double density = 1e-3;
    /// Densities for the first warmup epochs (paper: [0.25, 0.0725, 0.015,
    /// 0.004] before settling at `density`). Empty = no warmup.
    std::vector<double> warmup_densities;
    /// LR multiplier during warmup epochs (paper uses "small learning
    /// rates" during warmup).
    float warmup_lr_scale = 0.25f;
    std::uint64_t model_seed = 42;
    /// When true, every iteration asserts the error-feedback invariant
    /// (residual + sent == accumulated gradient) and replica consistency.
    bool check_invariants = false;

    /// How the local sparse contribution is selected (gTop-k family only;
    /// TopKAllReduce's wire format requires ExactTopk). Threshold policies
    /// produce variable nnz, which the tree aggregation tolerates.
    sparse::SelectionPolicy selection = sparse::SelectionPolicy::ExactTopk;
    /// Fixed |g| cutoff for SelectionPolicy::StaticThreshold.
    float static_threshold = 1e-3f;

    /// DGC-style local gradient clipping (Lin et al. [12]): before residual
    /// accumulation, scale the local gradient so its L2 norm is at most
    /// this value. 0 disables.
    float gradient_clip_norm = 0.0f;

    /// Where momentum lives. PostAggregation (default, used by the paper's
    /// setup here): one velocity on the aggregated mean update, identical
    /// on all replicas. LocalCorrection (DGC momentum correction): each
    /// worker applies momentum to its LOCAL gradient before residual
    /// accumulation, and the aggregated update is applied with plain SGD.
    enum class MomentumMode { PostAggregation, LocalCorrection };
    MomentumMode momentum_mode = MomentumMode::PostAggregation;

    /// Combined sparsification + quantization (paper Sec. VI): the selected
    /// values are quantized before leaving the worker and the quantization
    /// error is returned to the residual (error feedback), so convergence
    /// is preserved. Indices stay exact. None = fp32 values.
    quant::Scheme value_quantizer = quant::Scheme::None;

    /// Observability: non-null enables per-phase span tracing on every rank
    /// (worker-loop phases, collectives, gTop-k merge rounds, send/recv).
    /// The tracer must outlive train_distributed and cover world_size
    /// ranks. nullptr (default) compiles the traced paths down to
    /// branch-on-null.
    obs::Tracer* tracer = nullptr;

    /// External transport for the training cluster (e.g. a
    /// comm::FaultInjectingTransport for chaos runs); its world_size must
    /// equal the training world. nullptr (default) = fresh InProcTransport.
    /// Must outlive train_distributed; one transport per run.
    comm::Transport* transport = nullptr;

    /// Multi-process mode: >= 0 makes train_distributed drive ONLY this
    /// rank, on the calling thread, over the external `transport` (required;
    /// typically a comm::TcpTransport whose peer ranks live in other OS
    /// processes launched by tools/gtopkrun). The returned TrainResult then
    /// describes this rank alone: final_params is the local replica,
    /// final_members == {local_rank}. Composes with `membership`: on a
    /// non-shared-memory transport the regroup round runs over the wire
    /// (leader-collected JOIN frames, broadcast VIEW), so a SIGKILLed peer
    /// yields the same elastic shrink as the in-process barrier; if the
    /// LOCAL rank is the casualty, train_distributed throws the typed
    /// comm::CommError(RankKilled) the process exit contract maps onto.
    /// -1 (default): the classic mode, one thread per rank in this process.
    int local_rank = -1;

    /// Receive deadline (host seconds) armed on every rank; <= 0 waits
    /// forever. Chaos runs set this so dropped messages surface as a typed
    /// comm::CommError instead of hanging the cluster.
    double recv_timeout_s = 0.0;

    /// Clock the receive deadline is measured on. Virtual makes timeout
    /// OUTCOMES deterministic (they depend on modeled arrivals only); Host
    /// (default) is the stall detector elastic recovery relies on.
    comm::DeadlineClock recv_deadline_clock = comm::DeadlineClock::Host;

    /// Membership service enabling the self-healing runtime (must span the
    /// same transport and outlive train_distributed). With it, a rank kill
    /// no longer aborts the run: the dead rank leaves, survivors detect the
    /// stall via their receive deadline, regroup into a new epoch-stamped
    /// view, roll back to the newest common checkpoint, resync state by
    /// binomial broadcast from the lowest surviving rank, and finish the
    /// run on the smaller world. Requires recv_timeout_s > 0 (the stall
    /// detector is what routes survivors into the regroup). nullptr
    /// (default) keeps the fail-fast behavior: any CommError aborts.
    comm::MembershipService* membership = nullptr;

    /// In-memory checkpoint cadence in steps (elastic runs only). A
    /// snapshot is always taken at step 0 so a rollback target exists from
    /// the first iteration; <= 0 keeps only that one.
    int checkpoint_every = 0;

    /// --- layer-wise overlap (LayerwiseGtopkSsgd only) ---
    /// Overlapped aggregation: per-bucket gTop-k collectives are issued in
    /// backward (gradient-ready) order as AsyncCollective handles and
    /// drained front-bucket-first (P3 priority), so communication hides
    /// under the modeled backward compute on the virtual-time network. Off
    /// (default): the sequential per-bucket loop, bit-identical to pre-
    /// overlap behavior. Scheduling may not change math: final params are
    /// bit-identical with overlap on or off for the same seed.
    bool overlap = false;
    /// Tensor-fusion threshold: consecutive parameter tensors are fused
    /// (in backward order) into buckets of at least this many gradient
    /// payload bytes (train/bucketer.hpp). <= 0 (default) keeps one bucket
    /// per tensor — the historical per-tensor granularity. Applies to
    /// selection AND aggregation, independent of `overlap`.
    std::int64_t bucket_bytes = 0;
    /// Modeled backward-pass time injected into the VIRTUAL clock during
    /// layer-wise aggregation: with overlap on, each bucket's collective is
    /// issued only once the clock reaches its bucketer-defined ready time
    /// (ready_fraction * this); with overlap off, the full backward time is
    /// charged before the sequential loop. 0 (default): no injection —
    /// virtual time measures pure communication, as before. Benches set it
    /// from profiled compute so overlap is measurable in virtual time.
    double overlap_backward_s = 0.0;

    /// Cluster telemetry plane (obs/telemetry.hpp): non-null makes every
    /// rank fold its iteration into a RankIterStats and run the global
    /// stats allgather each step, driving any attached attribution /
    /// straggler / flight-recorder consumers. The exchange rides the
    /// reserved absolute-tag band, so the training trajectory is
    /// bit-identical with telemetry on or off. Must cover world_size ranks
    /// and outlive train_distributed. nullptr (default): disabled,
    /// branch-on-null only.
    obs::Telemetry* telemetry = nullptr;
};

/// Builds one model replica; called once per rank with the same seed so all
/// replicas are identical.
using ModelFactory =
    std::function<std::unique_ptr<nn::TrainableModel>(std::uint64_t seed)>;

/// Training batch for (global step, rank) — rank-sharded by the caller.
using TrainBatchProvider = std::function<nn::Batch(std::int64_t step, int rank)>;

/// Fixed evaluation batch (same on every rank); may be empty (no eval).
using EvalBatchProvider = std::function<nn::Batch()>;

struct EpochMetrics {
    int epoch = 0;
    double density = 1.0;
    double train_loss = 0.0;     // mean over the epoch's iterations, all ranks
    double val_loss = 0.0;
    double val_accuracy = 0.0;
};

struct TrainResult {
    std::vector<EpochMetrics> epochs;
    /// Mean per-iteration phase costs: compute/compress in host seconds,
    /// comm in modeled (virtual) seconds on rank 0.
    double mean_compute_s = 0.0;
    double mean_compress_s = 0.0;
    double mean_comm_virtual_s = 0.0;
    comm::CommStats rank0_comm;
    /// Rank 0's phase totals derived from the tracer's spans (all zeros
    /// when config.tracer == nullptr). With a large-enough ring buffer this
    /// reproduces the mean_* accumulators above from the trace alone.
    obs::PhaseTotals rank0_traced_phases;
    /// Lead replica's parameters. The lead is the lowest rank that FINISHED
    /// training — physical rank 0 unless it was killed in an elastic run.
    std::vector<float> final_params;

    // --- self-healing runtime outcome (identity values when no membership
    // service was configured or no failure occurred) ---
    /// Physical ranks that completed training (the final survivor world).
    std::vector<int> final_members;
    /// Final parameters per final_members entry; replica consistency means
    /// these should be bit-identical across survivors.
    std::vector<std::vector<float>> survivor_params;
    /// Membership epoch at completion (0 = no regroup ever happened).
    int final_membership_epoch = 0;
    /// Regroups the lead rank participated in.
    int regroups = 0;
};

TrainResult train_distributed(int world_size, comm::NetworkModel net,
                              const TrainConfig& config, const ModelFactory& factory,
                              const TrainBatchProvider& train_batches,
                              const EvalBatchProvider& eval_batch);

}  // namespace gtopk::train
