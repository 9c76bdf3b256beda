#include "analysis/protocheck/reconnect_model.hpp"

#include <algorithm>

namespace gtopk::analysis::protocheck {

namespace fsm = gtopk::comm::fsm;

comm::fsm::ReconnectPolicy ReconnectModel::policy() const {
    fsm::ReconnectPolicy p;
    p.max_attempts = cfg_.max_attempts;
    return p;
}

ReconnectModel::State ReconnectModel::initial() const {
    // Both endpoints never connected, as TcpTransport starts every link:
    // the first connection runs the same handshake as every resume.
    State s;
    s.dialer = fsm::kNeverConnected;
    s.acceptor = fsm::kNeverConnected;
    s.losses_left = cfg_.max_losses;
    return s;
}

namespace {

bool quiescent(const ReconnectModel::State& s) {
    return s.resumes.empty() && s.oks.empty() && !s.pend_down_dialer &&
           !s.pend_down_acceptor;
}

std::vector<std::uint64_t> distinct(const std::vector<std::uint64_t>& v) {
    std::vector<std::uint64_t> out = v;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void erase_one(std::vector<std::uint64_t>& v, std::uint64_t value) {
    const auto it = std::find(v.begin(), v.end(), value);
    if (it != v.end()) v.erase(it);
}

}  // namespace

std::vector<ReconnectModel::Action> ReconnectModel::actions(const State& s) const {
    using K = Action::Kind;
    std::vector<Action> out;
    if (s.dialer.phase == fsm::LinkPhase::kUp &&
        s.acceptor.phase == fsm::LinkPhase::kUp && s.losses_left > 0 &&
        !s.pend_down_dialer && !s.pend_down_acceptor) {
        out.push_back({K::kConnLoss, 0});
    }
    if (s.pend_down_dialer) out.push_back({K::kDetectDialer, 0});
    if (s.pend_down_acceptor) out.push_back({K::kDetectAcceptor, 0});
    if (s.dialer.phase == fsm::LinkPhase::kDown) {
        out.push_back({K::kDial, 0});
        out.push_back({K::kExpireDialer, 0});
    }
    if (s.acceptor.phase == fsm::LinkPhase::kDown) {
        out.push_back({K::kExpireAcceptor, 0});
    }
    for (const std::uint64_t r : distinct(s.resumes)) {
        out.push_back({K::kDeliverResume, r});
        out.push_back({K::kDropResume, r});
    }
    for (const std::uint64_t v : distinct(s.oks)) {
        out.push_back({K::kDeliverOk, v});
        out.push_back({K::kDropOk, v});
    }
    return out;
}

ReconnectModel::State ReconnectModel::apply(const State& s, const Action& a) const {
    using K = Action::Kind;
    State n = s;
    switch (a.kind) {
        case K::kConnLoss:
            --n.losses_left;
            n.pend_down_dialer = true;
            n.pend_down_acceptor = true;
            break;
        case K::kDetectDialer:
            n.pend_down_dialer = false;
            (void)fsm::link_down(n.dialer);
            n.cur_proposal = 0;  // no outstanding dial in the new incarnation
            break;
        case K::kDetectAcceptor:
            n.pend_down_acceptor = false;
            (void)fsm::link_down(n.acceptor);
            break;
        case K::kDial: {
            switch (fsm::link_dial(n.dialer, policy())) {
                case fsm::DialVerdict::kDial:
                    n.cur_proposal = fsm::link_propose(n.dialer);
                    n.resumes.push_back(n.cur_proposal);
                    // Dialing again abandons the previous connection; any
                    // RESUME_OK still riding it dies with the socket.
                    n.oks.clear();
                    break;
                case fsm::DialVerdict::kDead:
                    // Giving up closes every socket the dialer holds: a
                    // RESUME_OK buffered in one is never read, and an
                    // acceptor that installed one of those sockets will
                    // observe the loss.
                    n.cur_proposal = 0;
                    n.oks.clear();
                    if (n.acceptor.phase == fsm::LinkPhase::kUp) {
                        n.pend_down_acceptor = true;
                    }
                    break;
            }
            break;
        }
        case K::kDeliverResume: {
            erase_one(n.resumes, a.value);
            const std::uint64_t prev_session = n.acceptor.session;
            const bool prev_dead = n.acceptor.phase == fsm::LinkPhase::kDead;
            const bool acceptor_held_conn =
                n.acceptor.phase == fsm::LinkPhase::kUp;
            const fsm::ResumeVerdict v = fsm::link_resume(n.acceptor, a.value);
            if (prev_dead && n.acceptor.phase != fsm::LinkPhase::kDead) {
                n.violation = "dead-resurrected";
                break;
            }
            if (v != fsm::ResumeVerdict::kAccept) break;  // connection closed
            // THE spec check, independent of the FSM's own guard: an
            // accepted proposal must strictly advance the session, or a
            // delayed dial resurrected an abandoned incarnation.
            if (a.value <= prev_session) {
                n.violation = "stale-session-accepted";
                break;
            }
            // Installing the accepted connection retires whatever the
            // acceptor held before; a dialer still holding that old
            // connection observes the loss.
            if (acceptor_held_conn &&
                s.dialer.phase == fsm::LinkPhase::kUp) {
                n.pend_down_dialer = true;
            }
            if (s.dialer.phase == fsm::LinkPhase::kDown &&
                a.value == s.cur_proposal) {
                // Viable: the dialer still holds this socket — the
                // RESUME_OK can reach it.
                n.oks.push_back(a.value);
            } else {
                // Backlog dial the dialer already abandoned: the acceptor
                // just installed a dead connection and will notice.
                n.pend_down_acceptor = true;
            }
            break;
        }
        case K::kDropResume:
            erase_one(n.resumes, a.value);
            break;
        case K::kDeliverOk: {
            erase_one(n.oks, a.value);
            const bool prev_dead = n.dialer.phase == fsm::LinkPhase::kDead;
            if (n.dialer.phase == fsm::LinkPhase::kDown) {
                fsm::link_established(n.dialer, a.value);
                n.cur_proposal = 0;
                // TCP delivers buffered data before EOF: the confirm can
                // arrive from an acceptor that has since died, but the EOF
                // right behind it downs the link again.
                if (n.acceptor.phase == fsm::LinkPhase::kDead) {
                    n.pend_down_dialer = true;
                }
            }
            if (prev_dead && n.dialer.phase != fsm::LinkPhase::kDead) {
                n.violation = "dead-resurrected";
            }
            break;
        }
        case K::kDropOk:
            erase_one(n.oks, a.value);
            break;
        case K::kExpireDialer:
            // Death closes the dialer's sockets: buffered RESUME_OKs are
            // never read, and an acceptor up on one of those sockets
            // observes the loss. (RESUMEs already buffered on the
            // acceptor's side survive — TCP delivers them before the EOF.)
            (void)fsm::link_expire(n.dialer);
            n.cur_proposal = 0;
            n.oks.clear();
            if (n.acceptor.phase == fsm::LinkPhase::kUp) {
                n.pend_down_acceptor = true;
            }
            break;
        case K::kExpireAcceptor:
            (void)fsm::link_expire(n.acceptor);
            if (n.dialer.phase == fsm::LinkPhase::kUp) {
                n.pend_down_dialer = true;
            }
            break;
    }
    // encode() leans on this: a session id, once reached, never goes back.
    if (n.violation.empty() && (n.dialer.session < s.dialer.session ||
                                n.acceptor.session < s.acceptor.session)) {
        n.violation = "session-regressed";
    }
    return n;
}

std::string ReconnectModel::describe(const Action& a) const {
    using K = Action::Kind;
    switch (a.kind) {
        case K::kConnLoss: return "conn-loss";
        case K::kDetectDialer: return "detect(dialer)";
        case K::kDetectAcceptor: return "detect(acceptor)";
        case K::kDial: return "dial";
        case K::kDeliverResume:
            return "deliver RESUME(session=" + std::to_string(a.value) + ")";
        case K::kDropResume:
            return "drop RESUME(session=" + std::to_string(a.value) + ")";
        case K::kDeliverOk:
            return "deliver RESUME_OK(session=" + std::to_string(a.value) + ")";
        case K::kDropOk:
            return "drop RESUME_OK(session=" + std::to_string(a.value) + ")";
        case K::kExpireDialer: return "expire(dialer)";
        case K::kExpireAcceptor: return "expire(acceptor)";
    }
    return "?";
}

std::optional<std::string> ReconnectModel::check(const State& s) const {
    if (!s.violation.empty()) return s.violation;
    if (s.dialer.attempts > cfg_.max_attempts) return "attempts-unbounded";
    if (quiescent(s) && s.dialer.phase == fsm::LinkPhase::kUp &&
        s.acceptor.phase == fsm::LinkPhase::kUp &&
        s.dialer.session != s.acceptor.session) {
        return "session-divergence";
    }
    return std::nullopt;
}

bool ReconnectModel::is_goal(const State& s) const {
    if (!quiescent(s)) return false;
    const bool both_up = s.dialer.phase == fsm::LinkPhase::kUp &&
                         s.acceptor.phase == fsm::LinkPhase::kUp &&
                         s.dialer.session == s.acceptor.session;
    const bool both_dead = s.dialer.phase == fsm::LinkPhase::kDead &&
                           s.acceptor.phase == fsm::LinkPhase::kDead;
    return both_up || both_dead;
}

bool ReconnectModel::is_fair(const Action& a) const {
    using K = Action::Kind;
    switch (a.kind) {
        case K::kDetectDialer:
        case K::kDetectAcceptor:
        case K::kDial:
        case K::kDeliverResume:
        case K::kDeliverOk:
        case K::kExpireAcceptor:
            // The runtime guarantees these eventually fire: the fabric
            // reports a broken connection, the backoff timer expires, a
            // frame sitting in a healthy socket is read, the passive
            // patience clock runs out.
            return true;
        case K::kConnLoss:
        case K::kDropResume:
        case K::kDropOk:
        case K::kExpireDialer:
            // Adversary moves (the dialer's host-time cap is a choice too:
            // liveness must not depend on it firing).
            return false;
    }
    return false;
}

std::vector<std::uint64_t> ReconnectModel::encode(const State& s) const {
    // Session ids only ever meet each other (the FSM adds attempt numbers
    // to them and compares them, and 0 is not special to it), so two
    // states that differ by a common session offset behave alike: encode
    // every id relative to the lower endpoint's session. Without this the
    // id range, and the state count, grows with every dial attempt of
    // every earlier incarnation of the link.
    const std::uint64_t base = std::min(s.dialer.session, s.acceptor.session);
    const auto rel = [base](std::uint64_t v) { return v - base; };  // mod 2^64
    std::vector<std::uint64_t> e;
    e.push_back(static_cast<std::uint64_t>(s.dialer.phase));
    e.push_back(s.dialer.attempts);
    e.push_back(rel(s.dialer.session));
    e.push_back(static_cast<std::uint64_t>(s.acceptor.phase));
    e.push_back(s.acceptor.attempts);
    e.push_back(rel(s.acceptor.session));
    e.push_back((s.pend_down_dialer ? 1u : 0u) |
                (s.pend_down_acceptor ? 2u : 0u) |
                (s.cur_proposal != 0 ? 4u : 0u));
    e.push_back(rel(s.cur_proposal));
    e.push_back(static_cast<std::uint64_t>(s.losses_left));
    // A RESUME the acceptor can no longer accept — its proposal does not
    // advance the acceptor's session, or the acceptor is dead — can only
    // be read and refused or dropped, both a plain removal (accepting it
    // is a violation, which ends the search). Such RESUMEs are alike, so
    // only their number is encoded. Sound because sessions never go back
    // ("session-regressed") and death is absorbing ("dead-resurrected").
    std::vector<std::uint64_t> live;
    std::uint64_t refused = 0;
    for (const std::uint64_t r : s.resumes) {
        if (s.acceptor.phase == fsm::LinkPhase::kDead || r <= s.acceptor.session) {
            ++refused;
        } else {
            live.push_back(rel(r));
        }
    }
    std::vector<std::uint64_t> oks;
    for (const std::uint64_t o : s.oks) oks.push_back(rel(o));
    for (std::vector<std::uint64_t>* v : {&live, &oks}) {
        std::sort(v->begin(), v->end());
        e.push_back(v->size());
        e.insert(e.end(), v->begin(), v->end());
    }
    e.push_back(refused);
    e.push_back(s.violation.empty() ? 0u : 1u);
    return e;
}

}  // namespace gtopk::analysis::protocheck
