// Pure reconnect / session-resume state machine for TcpTransport — the
// spec that both the live socket layer and the protocheck model checker
// EXECUTE (the same single-copy discipline as reliable_fsm.hpp and
// membership_fsm.hpp).
//
// One LinkState per peer, per endpoint. A link starts kNeverConnected
// (kDown, session 0), so its first connection runs the same handshake as
// every resume. Any socket-level failure — ECONNRESET, EPIPE, EOF, a
// mid-frame disconnect, a malformed frame — downs an established link;
// the DIALING side (the higher rank of the pair) then dials with capped
// exponential backoff and proposes a new session id, the ACCEPTING side
// validates the proposal against its own session counter. Sessions are
// strictly monotonic per link: a resume hello that does not advance the
// session is a stale dial from a previous incarnation of the link and must
// be rejected, or a delayed connect could resurrect a connection both
// sides already abandoned. Exhausting the dial budget (or the passive
// side's patience window) makes the link kDead — an absorbing state that
// flows into the control plane as Transport::rank_alive(peer) == false,
// i.e. typed CommError, membership regroup and elastic rollback.
//
// Data-plane recovery after a resume is NOT this FSM's job: frames lost in
// flight are retransmitted by the wire ARQ (reliable_fsm) once the
// reconnect event propagates (Transport::take_reconnected ->
// ReliableTransport pumping an ack + pull exchange). This FSM only decides
// whether a connection attempt may carry that traffic at all.
#pragma once

#include <cstdint>

namespace gtopk::comm::fsm {

// ---------------------------------------------------------------------------
// Seeded invariant breaks (test hooks; see reliable_fsm.hpp for rationale —
// protocheck's acceptance gate needs a deliberately broken protocol to
// surface a counterexample, and because TcpTransport executes these same
// functions the break is a break in BOTH model and implementation).

enum class ReconnectBreak {
    kNone = 0,
    /// The acceptor installs ANY proposal on a non-dead link, including
    /// ones that do not advance the session — a delayed dial from an
    /// abandoned incarnation resurrects a connection both sides walked
    /// away from (safety: "stale-session-accepted").
    kAcceptStale,
};

void set_reconnect_break(ReconnectBreak b);

enum class LinkPhase : std::uint8_t {
    kUp = 0,  // connection established; frames flow
    kDown,    // connection lost; reconnect in progress
    kDead,    // reconnect budget exhausted — absorbing; peer is gone
};

/// Per-peer link state. `session` is the id of the link's current
/// connection (the first one is normally 1); both endpoints agree on it
/// whenever the link is up, and it only ever grows. The default is a link
/// already up on session 1, the starting point of the resume-only tests.
struct LinkState {
    LinkPhase phase = LinkPhase::kUp;
    std::uint64_t attempts = 0;  // dials since the link went down
    std::uint64_t session = 1;
};

/// Where every live link starts: no connection has been made, so the
/// dialer's first proposal is 1 and the acceptor rejects 0 as stale.
inline constexpr LinkState kNeverConnected{LinkPhase::kDown, 0, 0};

struct ReconnectPolicy {
    std::uint64_t max_attempts = 6;  // dials before the link is declared dead
    double initial_backoff_s = 0.05;
    double max_backoff_s = 0.4;
    /// Patience window for the PASSIVE side (the lower rank, which cannot
    /// dial): a link down longer than this without a successful resume is
    /// dead. Also bounds the dialer as a belt-and-braces host-time cap.
    double give_up_after_s = 2.0;
};

/// Connection loss detected (either side). Returns true on the kUp -> kDown
/// edge; repeated failure reports and failures on a dead link are no-ops.
bool link_down(LinkState& st);

/// Backoff before dial number `st.attempts + 1` (capped exponential:
/// initial * 2^attempts, clamped to max). Pure query.
double link_backoff_s(const LinkState& st, const ReconnectPolicy& policy);

enum class DialVerdict {
    kDial,  // attempt admitted: connect and propose link_propose(st)
    kDead,  // budget exhausted — the link is now dead
};

/// Admit one dial attempt on the dialing side. Counts the attempt and
/// kills the link once the budget is spent. Only meaningful while kDown.
DialVerdict link_dial(LinkState& st, const ReconnectPolicy& policy);

/// Session id the dialer proposes in its resume hello: session + attempt
/// number, so every retry proposes a FRESH session. A lost RESUME_OK would
/// otherwise wedge the link — the acceptor already advanced its session,
/// and a retry of the same proposal would be rejected as stale forever.
std::uint64_t link_propose(const LinkState& st);

enum class ResumeVerdict {
    kAccept,       // session advances; install the new connection
    kRejectStale,  // proposal does not advance the session — old dial
    kRejectDead,   // link already dead; nothing may resurrect it
};

/// Acceptor-side validation of a resume hello carrying `hello_session`.
/// On kAccept the acceptor's state is already updated (phase kUp, session
/// = hello_session, attempts cleared); on rejection it is untouched.
ResumeVerdict link_resume(LinkState& st, std::uint64_t hello_session);

/// Dialer-side completion: the acceptor confirmed `session`. Phase kUp,
/// attempts cleared. No-op on a dead link (a late confirm cannot revive it).
void link_established(LinkState& st, std::uint64_t session);

/// Passive-side patience expiry (and the dialer's host-time cap): a link
/// that has been kDown for give_up_after_s becomes kDead. Returns true on
/// the transition.
bool link_expire(LinkState& st);

}  // namespace gtopk::comm::fsm
