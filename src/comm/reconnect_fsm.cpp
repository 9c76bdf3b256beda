#include "comm/reconnect_fsm.hpp"

namespace gtopk::comm::fsm {

namespace {
ReconnectBreak g_reconnect_break = ReconnectBreak::kNone;
}  // namespace

void set_reconnect_break(ReconnectBreak b) { g_reconnect_break = b; }

bool link_down(LinkState& st) {
    if (st.phase != LinkPhase::kUp) return false;
    st.phase = LinkPhase::kDown;
    st.attempts = 0;
    return true;
}

double link_backoff_s(const LinkState& st, const ReconnectPolicy& policy) {
    double b = policy.initial_backoff_s;
    for (std::uint64_t i = 0; i < st.attempts && b < policy.max_backoff_s; ++i) {
        b *= 2.0;
    }
    return b < policy.max_backoff_s ? b : policy.max_backoff_s;
}

DialVerdict link_dial(LinkState& st, const ReconnectPolicy& policy) {
    if (st.phase == LinkPhase::kDead) return DialVerdict::kDead;
    if (st.attempts >= policy.max_attempts) {
        st.phase = LinkPhase::kDead;
        return DialVerdict::kDead;
    }
    ++st.attempts;
    return DialVerdict::kDial;
}

std::uint64_t link_propose(const LinkState& st) {
    // Advance by the attempt number, not a constant: if dial N's RESUME_OK
    // was lost AFTER the acceptor installed session+N, dial N+1 must still
    // clear the acceptor's monotonicity bar or the link could never resume.
    return st.session + (st.attempts == 0 ? 1 : st.attempts);
}

ResumeVerdict link_resume(LinkState& st, std::uint64_t hello_session) {
    if (st.phase == LinkPhase::kDead) return ResumeVerdict::kRejectDead;
    // Monotonicity is the whole protocol: a proposal that does not advance
    // the session is a delayed dial from an incarnation both sides already
    // walked away from.
    if (hello_session <= st.session &&
        g_reconnect_break != ReconnectBreak::kAcceptStale) {
        return ResumeVerdict::kRejectStale;
    }
    st.session = hello_session;
    st.phase = LinkPhase::kUp;
    st.attempts = 0;
    return ResumeVerdict::kAccept;
}

void link_established(LinkState& st, std::uint64_t session) {
    if (st.phase == LinkPhase::kDead) return;
    if (session > st.session) st.session = session;
    st.phase = LinkPhase::kUp;
    st.attempts = 0;
}

bool link_expire(LinkState& st) {
    if (st.phase != LinkPhase::kDown) return false;
    st.phase = LinkPhase::kDead;
    return true;
}

}  // namespace gtopk::comm::fsm
