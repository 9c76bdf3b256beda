// Runtime conformance: diff a live threaded run's recorded message stream
// (comm/recording_transport.hpp) against the statically generated schedule.
//
// The global interleaving of a threaded run is nondeterministic, but each
// (src, dst) edge's stream is exactly the sender's program order — so the
// predictor lays out expected per-edge streams (replaying the SPMD
// async-band tag accounting to turn tag offsets into absolute tags), and the
// diff compares every edge element-wise: tags strictly, bytes when the
// schedule knows them exactly. The first divergence is reported with the
// protocol, round and edge position that produced the expectation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "collectives/schedule.hpp"
#include "comm/recording_transport.hpp"

namespace gtopk::analysis {

/// One predicted delivery on an edge.
struct ExpectedMsg {
    int src = -1;
    int dst = -1;
    int tag = -1;                              // absolute
    std::int64_t bytes = collectives::kVariableBytes;  // exact or variable
    std::string proto;
    int round = 0;
};

/// Accumulates the schedules a run executes, in order, replaying the
/// Communicator's async-band tag cursor so offsets become absolute tags.
class SchedulePredictor {
public:
    explicit SchedulePredictor(int world);

    /// Append one collective invocation (all SPMD ranks execute it). An
    /// absolute-tag schedule (the PS protocol) lands at its own tags; any
    /// other is one AsyncCollective handle whose tag block comes from the
    /// async-band cursor (fresh_async_tags replay) — so call in handle
    /// START order, the order every rank calls AsyncCollective::start() in.
    void add(const collectives::Schedule& sched);

    int world() const { return world_; }
    std::int64_t total_messages() const { return total_; }
    /// Value the ranks' async-band cursor should hold after the run.
    int async_cursor() const { return async_cursor_; }
    const std::vector<ExpectedMsg>& edge(int src, int dst) const;

private:
    int world_;
    int async_cursor_;
    std::int64_t total_ = 0;
    std::vector<std::vector<ExpectedMsg>> edges_;  // [src * world + dst]
};

struct ConformanceReport {
    bool ok = true;
    /// Readable first-divergence description; empty when ok.
    std::string divergence;
    std::int64_t expected_messages = 0;
    std::int64_t actual_messages = 0;
    std::int64_t matched_messages = 0;
};

/// How strictly the recorded stream's ordering is held to the schedule.
enum class ConformanceMode {
    /// Each (src, dst) edge must match the sender's program order exactly —
    /// the right discipline for blocking SPMD runs, where one thread issues
    /// every send on an edge in schedule order.
    kEdgeOrder,
    /// Overlapped runs: concurrent AsyncCollective handles interleave their
    /// sends on a shared edge host-nondeterministically, but each
    /// (src, dst, tag) stream is still deterministic (disjoint per-handle
    /// tag bands + per-handle program order). Both sides are compared after
    /// a stable sort by tag, which collapses the cross-handle interleaving
    /// while preserving within-tag order.
    kTagStream,
};

/// Compare the predictor's per-edge expectations with a recorded run.
/// `actual` is RecordingTransport::log() (any global order; per-edge order
/// is what matters).
ConformanceReport diff_conformance(const SchedulePredictor& predictor,
                                   std::span<const comm::RecordedMsg> actual,
                                   ConformanceMode mode = ConformanceMode::kEdgeOrder);

}  // namespace gtopk::analysis
