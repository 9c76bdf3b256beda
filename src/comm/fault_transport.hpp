// FaultInjectingTransport: a deterministic chaos decorator over any
// Transport, driven by a declarative, seeded FaultPlan.
//
// The gTop-k tree reduction assumes a lossless in-order fabric; this layer
// exists to falsify (or certify) that assumption under adversity. Per
// matched message it can drop, duplicate, delay (extra virtual-time
// latency), cross-stream reorder, or bit-corrupt the payload; it can also
// kill a rank outright after its Nth send. Faults that the mailbox's
// matching semantics mask (duplicates under per-collective tags, cross-stream
// reorder, delay) must leave training bit-identical to the fault-free run;
// unmaskable faults (drop, kill) must surface as a typed CommError through
// the Communicator's receive deadline — never a hang, never silent
// divergence.
//
// Determinism: every (src, dst) edge forks its own util::Xoshiro256 stream
// from the plan seed, and an edge's state is only ever touched by the
// sending rank's thread (deliver runs on the sender). The per-edge fault
// schedule — which message ordinals get which faults — is therefore a pure
// function of (seed, plan, per-edge traffic), bit-reproducible across runs
// and independent of thread interleaving. Reordered messages are parked in
// a per-edge hold slot and released by the edge's next message (or by the
// receiver's poll), preserving per-(source, tag) FIFO — the only ordering
// the mailbox guarantees — while scrambling cross-stream order.
//
// Host-timed traffic breaks that purity. A membership regroup's follower
// re-sends its JOIN every 0.1 s of host time until a VIEW arrives, and each
// resend draws from its edge's stream, so after a regroup the schedule also
// depends on how long the round took. Absent a regroup the membership
// service sends nothing, and the schedule is the same with it or without.
// Over a wire fabric, ReliableTransport's stall pulls (and the retransmits
// and acks they cause) are host-timed too; over the in-process fabric its
// recovery reads the sender's buffer and never passes through here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/transport.hpp"
#include "util/rng.hpp"

namespace gtopk::obs {
class Counter;
}  // namespace gtopk::obs

namespace gtopk::comm {

/// One fault specification. A rule applies to every message whose
/// (source, dst, tag) matches — kAnySource / kAnyTag wildcard like the
/// mailbox. The FIRST matching rule in FaultPlan::rules wins; later rules
/// never stack on the same message, and FaultInjectingTransport rejects a
/// plan whose rule an earlier rule shadows (it could never fire).
struct FaultRule {
    int src = kAnySource;
    int dst = kAnySource;
    int tag = kAnyTag;

    // Probabilistic faults, each drawn independently per matched message
    // from the edge's deterministic stream.
    double drop_prob = 0.0;     // message vanishes
    double dup_prob = 0.0;      // message delivered twice
    double reorder_prob = 0.0;  // message parked, released out of order
    double corrupt_prob = 0.0;  // one random payload bit flipped
    double delay_prob = 0.0;    // arrival_time_s += extra_delay_s
    double extra_delay_s = 0.0;

    // Scheduled faults: fire on every n-th matched message of each edge
    // (1-based ordinal divisible by n), independent of the probabilities.
    std::uint64_t drop_every_n = 0;     // 0 = off
    std::uint64_t reorder_every_n = 0;  // 0 = off

    bool matches(int source, int dst_rank, int msg_tag) const {
        return (src == kAnySource || src == source) &&
               (dst == kAnySource || dst == dst_rank) &&
               (tag == kAnyTag || tag == msg_tag);
    }
};

/// Kill rank `rank` the moment it attempts its `after_sends`-th + 1 send:
/// that send and all later ones are swallowed, and the rank's next receive
/// throws CommError(RankKilled). Peers blocked on its traffic surface
/// CommError(RecvTimeout) via the Communicator deadline.
///
/// `at_progress >= 0` instead kills the rank the moment it reports that
/// application step via Transport::on_progress (trainers mark every
/// iteration boundary) — the send counter is then ignored. This places the
/// death at an exact iteration/collective boundary, which the recovery
/// tests need to pin the rollback point precisely.
struct KillSpec {
    int rank = -1;
    std::uint64_t after_sends = 0;
    std::int64_t at_progress = -1;  // -1 = send-count trigger instead
};

/// Declarative chaos scenario: a seed plus a rule list plus kill specs.
/// Same (seed, plan) => bit-identical per-edge fault schedule.
struct FaultPlan {
    std::uint64_t seed = 1;
    std::vector<FaultRule> rules;
    std::vector<KillSpec> kills;

    FaultPlan& add(FaultRule rule) {
        rules.push_back(rule);
        return *this;
    }
    FaultPlan& kill(int rank, std::uint64_t after_sends) {
        kills.push_back({rank, after_sends, -1});
        return *this;
    }
    /// Kill `rank` exactly when it reports application step `step` (the
    /// trainer's iteration boundary), not after a send count.
    FaultPlan& kill_at_step(int rank, std::int64_t step) {
        kills.push_back({rank, 0, step});
        return *this;
    }
};

/// Snapshot of fault events since construction (aggregate over all edges).
/// With a completed (non-aborted) run, these totals are deterministic for a
/// given (seed, plan); an aborted run truncates per-edge traffic at a
/// scheduling-dependent point, so only the per-edge prefix property holds.
struct FaultCounts {
    std::uint64_t delivered = 0;  // physical deliveries into the inner fabric
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delayed = 0;
    std::uint64_t killed_sends = 0;  // sends swallowed on a killed rank

    std::uint64_t injected() const {
        return dropped + duplicated + reordered + corrupted + delayed + killed_sends;
    }
};

/// Flip `flips` uniformly random bits of `bytes` in place (no-op when
/// empty). Exposed so fuzz tests drive the exact corruption primitive the
/// transport injects.
void corrupt_bytes(std::span<std::byte> bytes, util::Xoshiro256& rng, int flips = 1);

class FaultInjectingTransport final : public Transport {
public:
    /// Decorate an existing transport (takes ownership).
    FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultPlan plan);
    /// Convenience: fresh InProcTransport underneath.
    FaultInjectingTransport(int world_size, FaultPlan plan);

    int world_size() const override { return inner_->world_size(); }
    void deliver(int dst, Message msg) override;
    /// Flushes the hold slots parked for `rank` before polling the inner
    /// fabric, so a message a sender parked after the receiver started
    /// waiting still shows up on the next poll.
    std::optional<Message> try_receive(int rank, int source, int tag) override;
    void shutdown() override;
    void set_tracer(obs::Tracer* tracer) override;
    /// Forwarded to the inner fabric. A message parked in a reorder hold
    /// slot is still "in flight" for the wrap check's purposes, so count it.
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override;
    /// Purge stale-epoch messages parked in hold slots destined to `rank`,
    /// then forward the epoch floor to the inner fabric.
    void begin_epoch(int rank, int epoch) override;
    /// False once the plan (or kill_rank) declared `rank` dead — or the
    /// inner fabric did (a TCP peer whose reconnect budget is exhausted).
    bool rank_alive(int rank) const override {
        return !rank_killed(rank) && inner_->rank_alive(rank);
    }
    /// Fires any kill_at_step spec scheduled for (rank, step).
    void on_progress(int rank, std::int64_t step) override;
    bool shared_memory_fabric() const override {
        return inner_->shared_memory_fabric();
    }
    std::vector<int> take_reconnected(int rank) override {
        return inner_->take_reconnected(rank);
    }

    /// Manually kill a rank now (e.g. at a chosen training iteration), in
    /// addition to any plan-scheduled kills. Thread-safe.
    void kill_rank(int rank);
    bool rank_killed(int rank) const;

    const FaultPlan& plan() const { return plan_; }
    FaultCounts counts() const;
    Transport& inner() { return *inner_; }

private:
    struct Edge {
        util::Xoshiro256 rng;
        /// Matched-message ordinal per rule index (drives *_every_n).
        std::vector<std::uint64_t> rule_hits;
        Edge() : rng(0) {}
    };

    Edge& edge(int src, int dst) {
        return edges_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(world_size()) +
                      static_cast<std::size_t>(dst)];
    }
    /// Physical delivery honoring the destination's hold slot.
    void deliver_through(int dst, Message msg);
    /// Release any message parked for `dst` into the inner transport.
    void flush_held(int dst);
    void count_event(std::atomic<std::uint64_t>& cell, obs::Counter* metric);

    std::unique_ptr<Transport> inner_;
    FaultPlan plan_;
    /// Per-(src, dst) fault state; only src's thread touches row src.
    std::vector<Edge> edges_;
    /// Reorder hold slots, one per (src, dst) edge; src's thread parks,
    /// src's next send or dst's receive poll releases — hence the lock.
    std::vector<std::optional<Message>> held_;
    mutable std::mutex held_mutex_;
    std::vector<std::atomic<bool>> killed_;
    /// Plan-scheduled kill threshold per rank (UINT64_MAX = never) and the
    /// rank's lifetime send attempts (only the rank's own thread writes).
    std::vector<std::uint64_t> kill_after_;
    std::vector<std::uint64_t> sends_attempted_;
    /// Scheduled-step kill per rank (INT64_MAX = never); fires in
    /// on_progress the moment the rank reports that step.
    std::vector<std::int64_t> kill_at_step_;

    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> duplicated_{0};
    std::atomic<std::uint64_t> reordered_{0};
    std::atomic<std::uint64_t> corrupted_{0};
    std::atomic<std::uint64_t> delayed_{0};
    std::atomic<std::uint64_t> killed_sends_{0};

    obs::Counter* m_dropped_ = nullptr;
    obs::Counter* m_duplicated_ = nullptr;
    obs::Counter* m_reordered_ = nullptr;
    obs::Counter* m_corrupted_ = nullptr;
    obs::Counter* m_delayed_ = nullptr;
    obs::Counter* m_killed_sends_ = nullptr;
};

}  // namespace gtopk::comm
