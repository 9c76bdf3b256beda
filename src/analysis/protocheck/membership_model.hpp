// Membership/epoch agreement model for protocheck: a world of 2..4 ranks
// running MembershipService's JOIN/VIEW regroup protocol through the SAME
// fsm::membership_* functions the service executes, one FSM state per rank
// and JOIN/VIEW frames in flight. The adversary kills ranks at any point,
// chooses which ranks call regroup(), expires each leader's grace window
// and each follower's 2x-grace deadline, and interleaves everything.
//
// Fabric assumptions (the in-process fault fabric and a TCP stream): frames
// are never lost and are taken in any order; a kill stops the dead rank's
// sends (the rest of a VIEW broadcast too) and drops its inbound frames,
// while frames it sent earlier already sit in their receivers' mailboxes.
// The service polls VIEW frames first, so a leader only evaluates with no
// newer VIEW pending. Election by rank order makes ranks distinguishable:
// no symmetry reduction applies.
//
// Safety invariants, checked independently of the FSM at every view a
// rank installs (a leader's finalization or a member adopting a VIEW):
//   quorum-violation     a leader finalized without every live member of
//                        its view joined and without a strict majority
//   split-brain          two live ranks installed different views of one
//                        epoch (a dead rank sends nothing: its views bind
//                        no one)
//   epoch-skip           an installed epoch is not the installer's last + 1
//   member-resurrection  an installed view holds a rank outside the
//                        installer's last view
// Liveness (fair: all but regroup() calls and kills): no live rank stays
// inside regroup() forever.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/membership_fsm.hpp"

namespace gtopk::analysis::protocheck {

struct MembershipModelConfig {
    int world = 3;
    int max_kills = 1;       // adversary rank kills
    int joins_per_rank = 2;  // regroup() calls each rank may issue
};

class MembershipModel {
public:
    /// A frame sent into `dst`'s mailbox and not yet taken. JOIN carries
    /// the sender's epoch; VIEW carries the agreed epoch and member mask.
    struct Frame {
        enum class Kind : std::uint8_t { kJoin, kView };
        Kind kind = Kind::kJoin;
        int dst = 0;
        int src = 0;  // JOIN sender; 0 for VIEW (the content is the view)
        int epoch = 0;
        std::uint32_t members = 0;  // VIEW member bitmask
        auto operator<=>(const Frame&) const = default;
    };

    struct Action {
        enum class Kind : std::uint8_t {
            kJoin,         // rank calls regroup(): joins its own state and
                           // elects (leads, or sends JOIN to the leader)
            kElect,        // a follower re-elects after a kill: it leads,
                           // or re-sends its JOIN to the new leader
            kTakeJoin,     // a leader takes a JOIN frame
            kTakeView,     // a follower or leader takes a VIEW frame
            kGraceExpire,  // a leader's grace window elapses
            kEvaluate,     // a leader applies the finalization rule
            kSendView,     // a finalized leader sends its next VIEW
            kDeadline,     // a follower's 2x-grace deadline elapses
            kKill,         // fault plan kills the rank
        };
        Kind kind = Kind::kJoin;
        int rank = 0;
        Frame frame{};  // the frame a take action consumes
    };

    enum class Mode : std::uint8_t { kIdle, kFollower, kLeader, kBroadcast };

    struct RankState {
        comm::fsm::MembershipFsmState fsm;
        Mode mode = Mode::kIdle;
        bool grace_expired = false;
        /// Leader this regroup() call last sent its JOIN to (-1: none).
        /// The service resends on a timer; a resend to the same leader is
        /// idempotent, so one JOIN per elected leader covers it.
        int join_sent_to = -1;
        int joins_left = 0;
        std::uint32_t outbox = 0;  // VIEW recipients not yet sent (bitmask)
    };

    /// A view a live rank installed, for the split-brain check.
    struct Install {
        int rank = 0;
        int epoch = 0;
        std::uint32_t members = 0;
        auto operator<=>(const Install&) const = default;
    };

    struct State {
        std::vector<RankState> ranks;
        std::vector<bool> fabric_alive;
        int kills_left = 0;
        std::vector<Frame> frames;       // in flight; sorted, deduplicated
        std::vector<Install> installed;  // by live ranks; sorted
        std::string violation;           // set at install time by the spec
    };

    explicit MembershipModel(MembershipModelConfig cfg) : cfg_(cfg) {}

    State initial() const;
    std::vector<Action> actions(const State& s) const;
    State apply(const State& s, const Action& a) const;
    std::string describe(const Action& a) const;
    std::optional<std::string> check(const State& s) const;
    bool is_goal(const State& s) const;
    bool is_fair(const Action& a) const;
    std::vector<std::uint64_t> encode(const State& s) const;

    const MembershipModelConfig& config() const { return cfg_; }

private:
    MembershipModelConfig cfg_;
};

}  // namespace gtopk::analysis::protocheck
