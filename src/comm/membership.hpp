// MembershipService: epoch-stamped membership agreement for the simulated
// cluster.
//
// Failure detection is not this service's job. Death has one source:
// Transport::rank_alive (the fault plan's kill, or a TCP link declared
// dead), and a failure surfaces to the trainer as a receive deadline.
//
// When a failure surfaces on a survivor, the survivors run a regroup
// round: one JOIN/VIEW protocol, in-process and across processes alike
// (see regroup()). Every survivor ends up with the identical
// View{epoch + 1, sorted joiners} — the agreement the elastic trainer
// rebuilds its collectives on.
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

#include <chrono>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/membership_fsm.hpp"
#include "comm/transport.hpp"

namespace gtopk::comm {

struct MembershipConfig {
    double join_grace_s = 2.0;  // regroup round straggler bound
};

class MembershipService {
public:
    MembershipService(Transport& transport, MembershipConfig config = {});

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

    /// Agreement tuning (the trainer validates its receive deadline
    /// against `join_grace_s`).
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

    /// Per-rank agreement state, FSM-owned shape. Each entry is written
    /// only by its rank's thread; the mutex lets epoch()/current() read it
    /// from any thread.
    mutable std::mutex mutex_;
    std::vector<fsm::MembershipFsmState> state_;
};

}  // namespace gtopk::comm
