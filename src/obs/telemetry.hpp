// Cluster telemetry plane: a global per-iteration stats collective.
//
// Each rank folds its iteration — per-phase host/virtual durations, wire
// bytes moved by the aggregation collective, selection nnz, mailbox depth,
// fault/retransmit counters — into one fixed-size POD RankIterStats, and a
// Schedule-IR-generated ring allgather on the reserved telemetry tag band
// (comm/tags.hpp) makes the full IterSnapshot visible to EVERY rank each
// step. Because the exchange is just another schedule, it is statically
// verified by tools/commcheck, priced by analysis::cost_rules, and composes
// with chaos injection, ReliableTransport and elastic regroup unchanged:
// after a membership regroup the schedule regenerates over the survivor
// world and the epoch floor rejects stale telemetry traffic like any other
// traffic.
//
// Tag discipline: the exchange runs as one absolute-tag AsyncCollective
// handle on ABSOLUTE tags (kTagTelemetryBase + round), never an async-band
// block, so enabling telemetry does not advance the SPMD async tag cursor —
// training with telemetry on is bit-identical to telemetry off by
// construction, not by tolerance.
//
// Threading contract: exchange() is called by every rank's worker thread at
// the same loop point (SPMD). Per-rank scratch (cached schedule, row
// buffers, the rank's snapshot view) is touched only by the owning thread.
// The shared sinks — history ring, JSONL stream, attribution / straggler /
// flight-recorder consumers — are driven by LOGICAL rank 0 of the current
// view only, under one mutex (the lead can change across a regroup, never
// within a step). Readers of snapshots()/exchanges() run after the cluster
// joins or tolerate a slightly stale ring.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "collectives/schedule.hpp"
#include "obs/metrics.hpp"

namespace gtopk::comm {
class Communicator;
}

namespace gtopk::obs {

class CostAttribution;
class StragglerDetector;
class FlightRecorder;

/// One rank's folded iteration, the fixed-size wire unit of the telemetry
/// allgather. Field order is chosen so the struct carries no padding (the
/// static_asserts below pin it); raw bytes go over the wire directly.
struct RankIterStats {
    std::int64_t step = -1;
    std::int32_t physical_rank = -1;  // stable identity (trace pid)
    std::int32_t logical_rank = -1;   // position in the current view
    std::int32_t epoch = 0;           // membership epoch at fold time
    std::int32_t regroups = 0;        // regroups this rank survived
    double compute_host_s = 0.0;      // forward/backward (host clock)
    double compress_host_s = 0.0;     // top-k selection (host clock)
    double comm_virtual_s = 0.0;      // aggregation phase (virtual clock)
    double update_host_s = 0.0;       // SGD update (host clock)
    /// Aggregation-collective traffic: deltas of CommStats taken
    /// immediately around the aggregate phase, so epoch-boundary loss
    /// allgathers and the telemetry exchange itself never pollute them.
    std::int64_t wire_bytes_sent = 0;
    std::int64_t wire_bytes_received = 0;
    std::int64_t messages_sent = 0;
    std::int64_t messages_received = 0;
    std::int64_t nnz = -1;            // local selection size (-1: dense)
    std::int64_t mailbox_depth = 0;   // pending inbound messages at fold
    /// Cumulative fabric-wide robustness counters sampled at fold time
    /// (fault.* and reliable.retransmits of the run's shared registry);
    /// consumers diff consecutive snapshots for per-iteration rates.
    std::int64_t faults_injected = 0;
    std::int64_t retransmits = 0;
};

static_assert(std::is_trivially_copyable_v<RankIterStats> &&
                  std::is_standard_layout_v<RankIterStats>,
              "RankIterStats goes over the wire as raw bytes");
static_assert(sizeof(RankIterStats) == 8 + 4 * 4 + 4 * 8 + 8 * 8,
              "RankIterStats must carry no padding (wire format)");

/// The globally-agreed result of one telemetry exchange: every (surviving)
/// rank's RankIterStats for the step, indexed by LOGICAL rank. Identical on
/// every rank by the allgather's correctness.
struct IterSnapshot {
    std::int64_t step = -1;
    int epoch = 0;
    std::vector<RankIterStats> ranks;

    int world() const { return static_cast<int>(ranks.size()); }
    /// Mean aggregation-phase virtual time across ranks.
    double mean_comm_virtual_s() const;
    /// Slowest rank's aggregation-phase virtual time — the comparator for
    /// the schedule's critical path (on asymmetric protos, e.g. the gTop-k
    /// tree on non-power-of-two worlds, non-critical ranks finish early and
    /// the mean undershoots the model).
    double max_comm_virtual_s() const;
    /// Total aggregation-collective bytes sent across ranks.
    std::int64_t total_wire_bytes() const;
};

/// What the trainer ran as its aggregation collective this iteration, in
/// the vocabulary of collectives/schedule.hpp protos — the join key for
/// cost attribution. elems/elem_bytes follow the per-proto convention of
/// analysis::expected_totals (dense: elements x 4; sparse: wire bytes x 1).
struct CollectiveSpec {
    std::string proto;
    std::int64_t elems = 0;
    std::int64_t elem_bytes = 0;
    std::int64_t m = 0;  // model size, report context
    std::int64_t k = 0;  // selection size, report context (0 = dense)
};

/// Read the cumulative fault/retransmit counters out of a metrics registry
/// into `st` (helper shared by the trainers; zero-cost when the counters
/// were never registered).
void fold_fault_counters(const MetricsRegistry& metrics, RankIterStats& st);

class Telemetry {
public:
    struct Config {
        /// Snapshots retained in the in-memory history ring (lead-written).
        std::size_t history = 4096;
        /// Per-iteration JSONL stream ("" = off). One line per exchange,
        /// written by the logical lead rank.
        std::string jsonl_path;
    };

    explicit Telemetry(int world_size);
    Telemetry(int world_size, Config cfg);
    ~Telemetry();
    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    int world_size() const { return static_cast<int>(slots_.size()); }

    /// Consumers, driven by the lead rank under the sink mutex on every
    /// exchange. Set before the run starts; must outlive the Telemetry.
    void set_attribution(CostAttribution* a) { attribution_ = a; }
    void set_straggler(StragglerDetector* s) { straggler_ = s; }
    void set_flight_recorder(FlightRecorder* f) { recorder_ = f; }
    CostAttribution* attribution() const { return attribution_; }
    StragglerDetector* straggler() const { return straggler_; }
    FlightRecorder* flight_recorder() const { return recorder_; }

    /// The per-iteration stats collective: every rank of the current view
    /// calls this at the same loop point with its own folded stats. Executes
    /// the telemetry allgather schedule over comm's logical world and
    /// returns this rank's snapshot view (valid until the rank's next
    /// exchange). The lead rank additionally appends to the history ring /
    /// JSONL and drives the attached consumers.
    const IterSnapshot& exchange(comm::Communicator& comm, RankIterStats mine,
                                 const CollectiveSpec* spec = nullptr);

    /// Copy of the retained snapshot history, oldest first.
    std::vector<IterSnapshot> snapshots() const;
    /// Total exchanges recorded by the lead path.
    std::int64_t exchanges() const;
    const Config& config() const { return cfg_; }

private:
    struct RankSlot;  // per-rank scratch, owner-thread only

    void lead_sink(const IterSnapshot& snap, const CollectiveSpec* spec);

    Config cfg_;
    std::vector<std::unique_ptr<RankSlot>> slots_;

    mutable std::mutex sink_mutex_;
    std::vector<IterSnapshot> history_;  // ring of cfg_.history
    std::size_t history_next_ = 0;
    std::int64_t exchanges_ = 0;
    std::unique_ptr<std::ofstream> jsonl_;

    CostAttribution* attribution_ = nullptr;
    StragglerDetector* straggler_ = nullptr;
    FlightRecorder* recorder_ = nullptr;
};

/// One JSONL telemetry line (the format gtopktop consumes); exposed for the
/// trainer-independent writers (ps_trainer, tests).
void write_snapshot_jsonl(std::ostream& os, const IterSnapshot& snap,
                          const CollectiveSpec* spec,
                          const double* predicted_comm_s);

}  // namespace gtopk::obs
