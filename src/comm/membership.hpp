// MembershipService: heartbeat failure detection and epoch-stamped
// membership agreement for the simulated cluster.
//
// Liveness plane — each rank periodically gossips a heartbeat on the
// reserved kTagHeartbeat tag (which deliberately bypasses the reliable
// layer: a lost heartbeat IS the signal). Every rank tracks when it last
// heard from each peer; silence past `suspect_after_s` marks the peer
// suspected. A fault-plan kill swallows the victim's sends, so its
// heartbeats stop and every survivor's suspicion converges on the truth.
//
// Agreement plane — when a failure surfaces (a receive deadline fires on a
// survivor), the survivors run a regroup round: one JOIN/VIEW protocol,
// in-process and across processes alike (see regroup()). Every survivor
// ends up with the identical View{epoch + 1, sorted joiners} — the
// agreement the elastic trainer rebuilds its collectives on. Death has
// one source: Transport::rank_alive (the fault plan's kill, or a TCP link
// declared dead).
//
// Each rank keeps its OWN agreement state, and the transitions on it (join
// admission, quorum rule, finalization, VIEW adoption) live in
// comm/membership_fsm.hpp as pure functions this service EXECUTES — the
// same functions the protocheck model checker explores exhaustively, one
// state per rank with the frames in flight (DESIGN.md §16), so the
// checked model and the running code are one.
//
// Epoch discipline — the view's epoch is stamped on all subsequent
// traffic (Communicator::set_view) and installed as the receive floor
// (Transport::begin_epoch), so a straggler's stale messages are rejected
// deterministically rather than corrupting the new world's collectives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/membership_fsm.hpp"
#include "comm/transport.hpp"
#include "util/rng.hpp"

namespace gtopk::comm {

struct MembershipConfig {
    std::uint64_t seed = 1;            // jitters heartbeat phase per rank
    double heartbeat_interval_s = 0.010;  // host time between gossips
    double suspect_after_s = 0.100;    // silence before a peer is suspected
    double join_grace_s = 2.0;         // regroup round straggler bound
    /// Peers gossiped to per heartbeat burst. 0 (default) broadcasts to
    /// every peer — O(P) sends per rank per interval, O(P^2) cluster-wide,
    /// which is what melts at P in the hundreds. A positive fanout sends to
    /// that many peers per burst, rotating round-robin so every peer is
    /// refreshed once per ceil((P-1)/fanout) bursts; suspect_after_s must
    /// cover that full rotation cycle (times the interval) or healthy peers
    /// get suspected between refreshes. Safe to bound because suspicion is
    /// advisory — the regroup path is driven by receive deadlines, not by
    /// suspected().
    int heartbeat_fanout = 0;
};

class MembershipService {
public:
    MembershipService(Transport& transport, MembershipConfig config = {});

    /// Drive the liveness plane for `rank`: gossip a heartbeat when the
    /// (jittered) interval elapsed, drain incoming heartbeats, refresh
    /// last-heard bookkeeping. Call from the rank's own thread, once per
    /// training iteration (or more). Cheap when nothing is due.
    void tick(int rank);

    /// Peers of `rank` currently suspected dead (silent past the
    /// threshold). Reads only rank-local state; call from rank's thread.
    std::vector<int> suspected(int rank) const;

    /// Join the current regroup round and block until it completes. The
    /// leader (lowest live member of this rank's view) finalizes when every
    /// live member has joined (fast path, the common case — receive-deadline
    /// cascades bring everyone here) or when `join_grace_s` expires with a
    /// strict MAJORITY of the live members joined. Grace expiry without a
    /// majority throws std::runtime_error: a minority must never finalize a
    /// view (a straggler excluded by the majority's round would otherwise
    /// build a singleton view whose higher epoch passes every later epoch
    /// floor and train solo). The leader sends the VIEW to every live member
    /// of the old view, so a straggler the round voted out learns it and
    /// throws std::invalid_argument, as does a rank that is dead or was
    /// voted out earlier. A follower re-elects from fresh rank_alive
    /// snapshots while it waits, in case the leader itself is the casualty,
    /// re-sending its JOIN to the new leader; it throws std::runtime_error
    /// when no VIEW arrives within twice the grace window. Every VIEW is
    /// polled before the election and before the leader's verdict, so a
    /// VIEW a dead leader sent is never overruled by its successor.
    /// All survivors of a round return the identical view.
    MembershipView regroup(int rank);

    /// Latest view `rank` holds (initially epoch 0, all ranks).
    MembershipView current(int rank) const;

    /// True while the fabric has not declared `rank` dead. A rank must check
    /// this before regrouping: its own death can surface as a receive
    /// timeout when the kill lands mid-wait.
    bool alive(int rank) const;

    /// Epoch of the latest view `rank` holds.
    int epoch(int rank) const;
    /// Total heartbeats gossiped (all ranks), for tests.
    std::uint64_t heartbeats_sent() const;

    /// Detector/agreement tuning (the trainer validates its receive
    /// deadline against `join_grace_s`).
    const MembershipConfig& config() const { return config_; }

private:
    using Clock = std::chrono::steady_clock;

    /// Snapshot of Transport::rank_alive for every rank, the fabric input
    /// the FSM transitions consume.
    std::vector<bool> fabric_alive() const;

    /// The two halves of a round, run on `rank`'s own thread.
    MembershipView follow(int rank);
    MembershipView lead(int rank);
    /// Drain `rank`'s VIEW frames and adopt the first newer one: returns
    /// it, throws std::invalid_argument if it does not list `rank`.
    std::optional<MembershipView> take_view(int rank);

    Transport& transport_;
    MembershipConfig config_;

    /// Per-rank liveness state, touched only by the owning rank's thread.
    struct RankState {
        Clock::time_point last_sent{};
        Clock::duration phase_jitter{};
        std::vector<Clock::time_point> last_heard;
        bool started = false;
        int gossip_cursor = 0;  // rotation point for bounded-fanout bursts
    };
    std::vector<RankState> rank_state_;

    /// Per-rank agreement state, FSM-owned shape. Each entry is written
    /// only by its rank's thread; the mutex lets epoch()/current() read it
    /// from any thread.
    mutable std::mutex mutex_;
    std::vector<fsm::MembershipFsmState> state_;

    std::atomic<std::uint64_t> heartbeats_sent_{0};
};

}  // namespace gtopk::comm
