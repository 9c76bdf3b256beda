// Pure membership/epoch agreement state machine — the spec that both
// MembershipService and the protocheck model checker EXECUTE.
//
// The agreement plane of DESIGN.md §12 (regroup rounds, majority quorum,
// view finalization, VIEW adoption, the excluded-straggler rejection) is
// expressed here as side-effect-free transition functions over a
// value-type state. Every rank holds its OWN state: the leader folds the
// JOINs it receives into its copy and finalizes there; a follower adopts
// the leader's VIEW into its copy. membership.cpp owns the frames, the
// mutex and the clocks and merely APPLIES the verdicts these functions
// return; src/analysis/protocheck/membership_model.cpp drives the
// identical functions, one state per rank with JOIN/VIEW frames in
// flight, under an exhaustive adversarial scheduler (kills, grace and
// deadline expiries, joins and frame deliveries in every interleaving).
// One copy of the protocol logic — the model cannot drift from the code.
//
// There is no liveness state here: death is the fabric's rank_alive, read
// as an input by every transition that needs it, and a regroup starts when
// a receive deadline fires.
#pragma once

#include <cstdint>
#include <vector>

namespace gtopk::comm {

/// One agreed membership view. Ranks are PHYSICAL ranks of the original
/// world; logical ranks are their indices in `members` (sorted ascending,
/// so the lowest surviving physical rank is logical rank 0).
struct MembershipView {
    int epoch = 0;
    std::vector<int> members;
};

namespace fsm {

// ---------------------------------------------------------------------------
// Seeded invariant breaks (test hooks; see reliable_fsm.hpp for rationale)

enum class MembershipBreak {
    kNone = 0,
    /// Grace expiry finalizes with ANY non-empty joiner set — the PR 5
    /// split-brain class protocheck must rediscover ("quorum-violation").
    kQuorumBypass,
};

void set_membership_break(MembershipBreak b);
MembershipBreak membership_break();

// ---------------------------------------------------------------------------
// Agreement state

/// One rank's view of the agreement. `joined` is meaningful on the rank
/// that leads the round: the JOINs it has admitted (itself included).
struct MembershipFsmState {
    int world = 0;            // physical world size (fixed)
    int epoch = 0;            // epoch of the latest agreed view
    std::vector<int> members;  // latest agreed view, sorted ascending
    std::vector<bool> joined;  // joiners of the in-flight round
};

MembershipFsmState membership_init(int world);

/// Live members of the rank's CURRENT view, ascending. Liveness is the
/// fabric's alone (`fabric_alive` = Transport::rank_alive per rank).
std::vector<int> membership_live_members(const MembershipFsmState& st,
                                         const std::vector<bool>& fabric_alive);

/// The round's leader as this rank sees it: the lowest live member of its
/// own view, or -1 when none is live.
int membership_leader(const MembershipFsmState& st,
                      const std::vector<bool>& fabric_alive);

enum class JoinVerdict {
    kJoined,         // now a joiner of the current round
    kAlreadyJoined,  // idempotent re-entry into the same round
    kNotLive,        // fabric-dead: regroup() throws invalid_argument
    kNotInView,      // voted out by a previous round: throws invalid_argument
};

JoinVerdict membership_join(MembershipFsmState& st, int rank,
                            const std::vector<bool>& fabric_alive);

enum class RoundVerdict {
    kWait,            // joiners missing, grace still running
    kFinalizeAll,     // every live member joined (fast path)
    kFinalizeQuorum,  // grace expired with a strict majority joined
    kAbortNoQuorum,   // grace expired without a majority: regroup() throws
};

/// The finalization rule, evaluated by the round's leader: a round completes
/// when every live expected member joined, or at grace expiry with a
/// strict MAJORITY of live members (a minority must never finalize — a
/// straggler excluded by the majority's round would otherwise build a view
/// whose higher epoch passes every later epoch floor and train solo).
RoundVerdict membership_evaluate(const MembershipFsmState& st,
                                 const std::vector<bool>& fabric_alive,
                                 bool grace_expired);

/// Apply a finalize verdict: epoch + 1, members = the joiner set (sorted
/// by construction: `joined` is rank-indexed), joiner set cleared. Returns
/// the new view every joiner of the round observes.
MembershipView membership_finalize(MembershipFsmState& st);

/// A VIEW frame reached this rank: adopt it when it is newer than the
/// rank's own view (a resend from a closed round is stale and ignored).
/// Adopting clears the joiner set. Returns whether the view was adopted;
/// an adopted view that does not list the rank means it was voted out,
/// and every later join of its own round is refused as kNotInView.
bool membership_adopt(MembershipFsmState& st, const MembershipView& view);

}  // namespace fsm
}  // namespace gtopk::comm
