// Reconnect / session-resume model for protocheck: ONE directed link of a
// TcpTransport mesh (the higher rank dials, the lower rank accepts), driven
// through the SAME fsm::link_* transition functions the socket layer
// executes, under an adversary that breaks the established connection,
// drops RESUME and RESUME_OK frames, reorders delayed dials behind fresh
// ones, and expires either side's patience at any point. Both endpoints
// start at fsm::kNeverConnected, as TcpTransport's links do, so the sweep
// covers the link's first connection as well as every resume.
//
// The model is deliberately faithful to the socket realities the FSM has
// to survive:
//   * loss detection is ASYMMETRIC — each endpoint notices the broken
//     connection independently, so the acceptor can see a resume dial
//     while it still believes the old connection is up;
//   * the dialer's attempts are SYNCHRONOUS — dialing again abandons the
//     previous connection, so a RESUME_OK for an earlier attempt dies with
//     its socket, but the earlier RESUME may still sit in the acceptor's
//     listen backlog and be read later (the stale-dial hazard);
//   * accepting such a stale dial installs a connection the dialer already
//     closed — the fabric then reports the link down AGAIN, which the
//     protocol must absorb.
//
// Checked safety invariants (evaluated independently of the FSM):
//   stale-session-accepted  the acceptor installed a proposal that does not
//                           advance its session (the --seed-break
//                           accept-stale bug class)
//   session-divergence      both endpoints up and quiescent (no frames or
//                           failure notifications in flight) yet they
//                           disagree on the session id
//   dead-resurrected        a kDead endpoint left kDead
//   session-regressed       an endpoint's session id went down (encode()'s
//                           state merging relies on it never happening)
//   attempts-unbounded      the dialer exceeded its dial budget
//
// Liveness (fair: detect, dial, deliver, expire — the runtime guarantees
// all of them eventually happen): every run converges to quiescence with
// both endpoints up on one agreed session, or both endpoints dead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/reconnect_fsm.hpp"

namespace gtopk::analysis::protocheck {

struct ReconnectModelConfig {
    /// Connection-loss events the adversary may inject on the established
    /// link (each downs both endpoints, detected independently). 0 checks
    /// the first connection alone.
    int max_losses = 1;
    /// Dial budget per down incarnation, first connection included (kept
    /// small: each incarnation can leave up to this many RESUMEs in
    /// flight, and the state count grows with their combinations).
    std::uint64_t max_attempts = 3;
};

class ReconnectModel {
public:
    struct Action {
        enum class Kind : std::uint8_t {
            kConnLoss,       // adversary breaks the established connection
            kDetectDialer,   // dialer's fabric reports the loss
            kDetectAcceptor, // acceptor's fabric reports the loss
            kDial,           // dialer's backoff fires: admit one attempt
            kDeliverResume,  // acceptor reads a RESUME (value = proposal)
            kDropResume,     // adversary loses a RESUME
            kDeliverOk,      // dialer reads the RESUME_OK (value = session)
            kDropOk,         // adversary loses the RESUME_OK
            kExpireDialer,   // dialer's host-time patience cap fires
            kExpireAcceptor, // acceptor's passive patience fires
        };
        Kind kind = Kind::kConnLoss;
        std::uint64_t value = 0;  // proposal/session for deliver/drop kinds
    };

    struct State {
        comm::fsm::LinkState dialer;
        comm::fsm::LinkState acceptor;
        bool pend_down_dialer = false;    // loss noticed but not yet handled
        bool pend_down_acceptor = false;
        /// RESUME proposals in flight (including abandoned-backlog dials).
        std::vector<std::uint64_t> resumes;
        /// RESUME_OK confirmations in flight (dies when the dialer re-dials).
        std::vector<std::uint64_t> oks;
        /// Proposal of the dialer's CURRENT outstanding attempt (0 = none):
        /// only this one rides a socket the dialer still holds open.
        std::uint64_t cur_proposal = 0;
        int losses_left = 0;
        std::string violation;  // set by apply()'s independent spec checks
    };

    explicit ReconnectModel(ReconnectModelConfig cfg) : cfg_(cfg) {}

    State initial() const;
    std::vector<Action> actions(const State& s) const;
    State apply(const State& s, const Action& a) const;
    std::string describe(const Action& a) const;
    std::optional<std::string> check(const State& s) const;
    bool is_goal(const State& s) const;
    bool is_fair(const Action& a) const;
    std::vector<std::uint64_t> encode(const State& s) const;

    const ReconnectModelConfig& config() const { return cfg_; }

private:
    comm::fsm::ReconnectPolicy policy() const;

    ReconnectModelConfig cfg_;
};

}  // namespace gtopk::analysis::protocheck
