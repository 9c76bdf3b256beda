// Communicator: the rank-scoped handle a worker uses to talk to peers —
// the moral equivalent of an MPI communicator, plus virtual-time accounting.
//
// Timing model: every transfer rides this rank's NIC timeline.
//   * send_async(dst, n bytes) occupies the sender's NIC for alpha + n*beta
//     from the first free slot at or after the caller's dependency time and
//     stamps the message's arrival with the transfer's end. It does not move
//     the virtual clock.
//   * try_recv_async() hands back the payload with its modeled arrival and
//     does not move the clock either.
// The caller is always an AsyncCollective handle (collectives/async.hpp):
// its sends start at max(previous send end, last arrival), and its wait()
// advances the clock to its last event. That is the sequential alpha-beta
// model of the paper: a ring step costs alpha + n*beta per rank, a tree
// round costs alpha + n*beta on its critical path, and a flat-tree root
// serializes (P-1) sends — exactly the behaviors Eqs. 5-7 assume. There is
// no blocking send or receive: every receive in the runtime is a
// try_recv_async pumped by a handle's wait().
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/comm_error.hpp"
#include "comm/network_model.hpp"
#include "comm/progress.hpp"
#include "comm/tags.hpp"
#include "comm/transport.hpp"
#include "comm/virtual_clock.hpp"

namespace gtopk::obs {
class Tracer;
class Counter;
class Histogram;
}  // namespace gtopk::obs

namespace gtopk::comm {

/// Per-rank communication counters, all in virtual time / modeled bytes.
struct CommStats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    /// Virtual seconds this rank's clock advanced inside
    /// AsyncCollective::wait (includes waiting for a peer's message to
    /// arrive). send_async does not move the clock and adds nothing.
    double comm_time_s = 0.0;

    void reset() { *this = CommStats{}; }
};

/// Which clock a receive deadline is measured on (set_recv_deadline).
enum class DeadlineClock {
    Host,     // wall time; detects stalled peers (default)
    Virtual,  // modeled time; deterministic timeout outcomes for tests
};

class Communicator {
public:
    Communicator(Transport& transport, int rank, NetworkModel model);

    /// LOGICAL rank/size under the current membership view. With the
    /// initial identity view these equal the physical rank and world size;
    /// after set_view they describe the survivor world, so collectives and
    /// schedule generators transparently target the regrouped cluster.
    int rank() const { return logical_rank_; }
    int size() const {
        return view_members_.empty() ? transport_.world_size()
                                     : static_cast<int>(view_members_.size());
    }

    /// Physical rank in the original world (mailbox address, trace id).
    int physical_rank() const { return rank_; }

    /// Logical -> physical peer translation under the current view (what
    /// a CommError names as the peer).
    int to_physical(int logical_peer) const;

    /// Install a membership view (comm/membership.hpp): `members` are the
    /// sorted physical ranks of the survivor world and must contain this
    /// rank. From here on rank()/size() are logical, peer arguments to
    /// send_async/try_recv_async are logical and translated at the wire,
    /// every outgoing message is stamped with `epoch`, and the transport's
    /// inbound epoch floor is raised so stale pre-regroup traffic is
    /// rejected. The async tag cursor restarts at kAsyncTagBase — safe
    /// precisely because the epoch floor guarantees no old-epoch message
    /// can steal a match.
    void set_view(std::vector<int> members, int epoch);

    /// Current membership epoch stamped on outgoing messages (0 initially).
    int epoch() const { return epoch_; }

    const NetworkModel& network() const { return model_; }

    VirtualClock& clock() { return clock_; }
    const VirtualClock& clock() const { return clock_; }

    CommStats& stats() { return stats_; }
    const CommStats& stats() const { return stats_; }

    /// Receive deadline applied to every handle's wait() on this rank;
    /// timeout_s <= 0 (the default) waits forever. On expiry the wait
    /// throws CommError(RecvTimeout) naming this rank, the awaited peer and
    /// the tag, so a dropped message (fault injection, dead peer) surfaces
    /// as a typed failure instead of an indefinite hang.
    /// `DeadlineClock::Host` counts HOST seconds: a rank starved of a
    /// message cannot advance virtual time at all (see comm_error.hpp).
    /// `DeadlineClock::Virtual` times a receive out when no match arrives
    /// by (the handle's last event + timeout_s) of MODELED time — a
    /// matching message with a later modeled arrival is consumed and
    /// discarded, so the timeout outcome depends only on the network
    /// model, never on host-machine speed. In virtual mode,
    /// set_recv_host_grace_s bounds the wall-clock wait for the only
    /// nondeterministic case (the message never arrives at all).
    void set_recv_deadline(DeadlineClock clock, double timeout_s) {
        deadline_clock_ = clock;
        recv_timeout_s_ = timeout_s;
    }
    double recv_timeout_s() const { return recv_timeout_s_; }
    DeadlineClock recv_deadline_clock() const { return deadline_clock_; }

    /// Host-seconds bound on a virtual-deadline receive whose match never
    /// materializes (true drop). Affects detection latency only, never
    /// which outcome deterministic scenarios observe.
    void set_recv_host_grace_s(double grace_s) { recv_host_grace_s_ = grace_s; }
    double recv_host_grace_s() const { return recv_host_grace_s_; }

    /// Report that this rank reached application step `step` (trainers call
    /// it every iteration). Forwards to Transport::on_progress, where the
    /// fault injector places scheduled kills at exact iteration boundaries.
    void mark_progress(std::int64_t step) { transport_.on_progress(rank_, step); }

    /// Attach an observability tracer (nullptr = tracing off, the default).
    /// With a tracer, send_async/try_recv_async record per-message spans
    /// and metrics; collectives and aggregators pick it up via tracer() to
    /// add their phase spans. Off, every traced path is one branch on null.
    void set_tracer(obs::Tracer* tracer);
    obs::Tracer* tracer() const { return tracer_; }

    /// NIC-timeline send for async collectives: the transfer occupies this
    /// rank's modeled NIC for alpha + n*beta starting at the first free
    /// slot at or after earliest_start_s (first-fit over the rank's busy
    /// intervals — host pump order must not decide modeled contention),
    /// WITHOUT advancing the virtual clock: modeled communication runs
    /// concurrently with modeled compute, which is what makes overlap
    /// measurable in virtual time. The message's arrival stamp is the
    /// transfer's end; that end time is returned so the caller can track
    /// its completion frontier (AsyncCollective syncs the clock to it in
    /// wait()).
    double send_async(int dst, int tag, std::vector<std::byte>&& payload,
                      double earliest_start_s);

    /// A matched async receive: payload plus its modeled arrival.
    struct AsyncMsg {
        std::vector<std::byte> payload;
        double arrival_s = 0.0;
    };

    /// Non-blocking matched receive on the NIC timeline: never advances the
    /// virtual clock; the caller gets the modeled arrival alongside the
    /// payload and decides when to synchronize (AsyncCollective::wait).
    std::optional<AsyncMsg> try_recv_async(int src, int tag);

    /// Latest modeled time this rank's NIC is occupied through by async
    /// sends (the busy timeline may have free gaps before it).
    double nic_busy_until_s() const { return nic_busy_until_s_; }

    /// This rank's payload buffer pool. Single-threaded: only the owning
    /// rank's thread may touch it.
    BufferPool& buffer_pool() { return pool_; }

    /// Inbound mailbox depth of this rank (pending messages across every
    /// tag) — the queue-pressure signal the telemetry plane folds into its
    /// per-iteration RankIterStats.
    std::size_t mailbox_depth() const {
        return transport_.pending_with_tag_at_least(rank_, kTagFloor);
    }

    /// Reserve `count` tags in the async band [kAsyncTagBase, INT_MAX) for
    /// one AsyncCollective handle — every collective, blocking or
    /// overlapped, runs as one — and return the band base. All ranks start
    /// the same handles in the same SPMD order, so per-rank cursors stay in
    /// lockstep and matching handles agree on the band without any
    /// coordination traffic; the cursor's monotonic advance guarantees two
    /// overlapping collectives can NEVER alias tags — the multi-collective
    /// tag discipline of DESIGN.md §14.
    ///
    /// Long runs exhaust the band (~2^30 tags); the cursor then wraps back
    /// to kAsyncTagBase. Wrapping is sound only when no async-band message
    /// is still in flight — since the cursors advance in SPMD lockstep,
    /// every rank wraps at the same handle boundary and checks its own
    /// inbound queue, which together covers all async-band traffic. A
    /// pending message at wrap time throws (tag reuse would mis-match).
    int fresh_async_tags(int count);

    /// Test hook: reposition the async cursor (e.g. just below the wrap
    /// limit to exercise the overflow path without 2^30 collectives). Must
    /// be called in SPMD lockstep with no async-band traffic in flight.
    void set_async_tag_cursor_for_test(int cursor) { async_tag_counter_ = cursor; }

    /// Register/unregister an in-flight progress source (async handles do
    /// this in start()/destruction). Registering into an empty registry
    /// also prunes the NIC busy list: with no handle in flight, every
    /// future transfer's dependency time is at or after the current clock,
    /// so occupancy that already ended is unreachable. Every handle's
    /// start() passes here, async-band or absolute-tag, which keeps the list
    /// bounded across iterations. Single-threaded: only the owning rank's
    /// thread may touch the registry.
    void add_progress_source(ProgressSource* source);
    void remove_progress_source(ProgressSource* source);

    /// Pump every registered source once, in ascending pump_priority()
    /// order (front-layer buckets first — the P3 preemption rule), equal
    /// priorities in registration order. The round is the registry as it
    /// stood on entry: a source that completes (and unregisters) mid-round
    /// changes only the next one. Not reentrant — no source's pump_some()
    /// may call back into it. Returns true if any source executed at least
    /// one op.
    bool pump_progress();

    /// Reserved NIC busy intervals (for diagnostics/tests).
    std::size_t nic_busy_count() const { return nic_busy_.size(); }

private:
    int async_tag_counter_;  // initialized to kAsyncTagBase, clear of user tags
    std::vector<ProgressSource*> progress_sources_;
    std::vector<ProgressSource*> pump_round_;  // pump_progress's snapshot
    Transport& transport_;
    int rank_;          // physical, fixed for the communicator's lifetime
    int logical_rank_;  // index into view_members_ (== rank_ when identity)
    int epoch_ = 0;
    std::vector<int> view_members_;  // empty = identity view (full world)
    /// Place a `duration_s` transfer at the first NIC gap at or after
    /// `earliest_s` (first-fit over nic_busy_), reserve it, and return its
    /// start. Host pump order must not decide modeled contention: a send
    /// pumped late but with an early data dependency backfills gaps left by
    /// transfers reserved before it.
    double reserve_nic(double earliest_s, double duration_s);

    DeadlineClock deadline_clock_ = DeadlineClock::Host;
    /// Reserved NIC busy intervals [start, end), sorted by start,
    /// non-overlapping. Pruned whenever a handle starts with none in flight
    /// (see add_progress_source).
    std::vector<std::pair<double, double>> nic_busy_;
    double nic_busy_until_s_ = 0.0;
    double recv_timeout_s_ = 0.0;
    double recv_host_grace_s_ = 2.0;
    NetworkModel model_;
    VirtualClock clock_;
    CommStats stats_;
    BufferPool pool_;
    obs::Tracer* tracer_ = nullptr;
    // Metric cells resolved once in set_tracer so the per-message cost is a
    // relaxed atomic add, not a registry lookup.
    obs::Counter* m_bytes_sent_ = nullptr;
    obs::Counter* m_bytes_received_ = nullptr;
    obs::Histogram* m_message_bytes_ = nullptr;
};

}  // namespace gtopk::comm
