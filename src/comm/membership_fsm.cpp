#include "comm/membership_fsm.hpp"

#include <algorithm>
#include <atomic>

namespace gtopk::comm::fsm {

namespace {

std::atomic<MembershipBreak> g_membership_break{MembershipBreak::kNone};

}  // namespace

void set_membership_break(MembershipBreak b) {
    g_membership_break.store(b, std::memory_order_relaxed);
}
MembershipBreak membership_break() {
    return g_membership_break.load(std::memory_order_relaxed);
}

MembershipFsmState membership_init(int world) {
    MembershipFsmState st;
    st.world = world;
    st.members.resize(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) st.members[static_cast<std::size_t>(r)] = r;
    st.joined.assign(static_cast<std::size_t>(world), false);
    return st;
}

std::vector<int> membership_live_members(const MembershipFsmState& st,
                                         const std::vector<bool>& fabric_alive) {
    std::vector<int> out;
    for (int r : st.members) {
        if (fabric_alive[static_cast<std::size_t>(r)]) out.push_back(r);
    }
    return out;
}

int membership_leader(const MembershipFsmState& st,
                      const std::vector<bool>& fabric_alive) {
    for (int r : st.members) {
        if (fabric_alive[static_cast<std::size_t>(r)]) return r;
    }
    return -1;
}

JoinVerdict membership_join(MembershipFsmState& st, int rank,
                            const std::vector<bool>& fabric_alive) {
    if (rank < 0 || rank >= st.world ||
        !fabric_alive[static_cast<std::size_t>(rank)]) {
        return JoinVerdict::kNotLive;
    }
    // A rank a previous round voted out must not join: allowing it would
    // let an excluded straggler spin up a fresh round, finalize a view
    // without the actual members, and train on with a higher epoch.
    if (std::find(st.members.begin(), st.members.end(), rank) ==
        st.members.end()) {
        return JoinVerdict::kNotInView;
    }
    if (st.joined[static_cast<std::size_t>(rank)]) return JoinVerdict::kAlreadyJoined;
    st.joined[static_cast<std::size_t>(rank)] = true;
    return JoinVerdict::kJoined;
}

RoundVerdict membership_evaluate(const MembershipFsmState& st,
                                 const std::vector<bool>& fabric_alive,
                                 bool grace_expired) {
    const std::vector<int> live = membership_live_members(st, fabric_alive);
    const std::size_t joined_live = static_cast<std::size_t>(
        std::count_if(live.begin(), live.end(), [&](int r) {
            return st.joined[static_cast<std::size_t>(r)];
        }));
    if (joined_live >= live.size()) return RoundVerdict::kFinalizeAll;
    if (!grace_expired) return RoundVerdict::kWait;
    const std::size_t joined_total = static_cast<std::size_t>(
        std::count(st.joined.begin(), st.joined.end(), true));
    if (membership_break() == MembershipBreak::kQuorumBypass && joined_total > 0) {
        // Seeded invariant break: any non-empty joiner set finalizes.
        return RoundVerdict::kFinalizeQuorum;
    }
    // Only a strict majority of the live members may finalize without the
    // rest — a minority view could coexist with (and outrank) the
    // majority's. Without quorum the round cannot safely conclude: abort.
    if (joined_live * 2 > live.size()) return RoundVerdict::kFinalizeQuorum;
    return RoundVerdict::kAbortNoQuorum;
}

MembershipView membership_finalize(MembershipFsmState& st) {
    MembershipView next;
    next.epoch = st.epoch + 1;
    for (int r = 0; r < st.world; ++r) {
        if (st.joined[static_cast<std::size_t>(r)]) next.members.push_back(r);
    }
    // joined is rank-indexed, so members comes out sorted: the lowest
    // surviving physical rank is logical rank 0 in the new world.
    st.epoch = next.epoch;
    st.members = next.members;
    std::fill(st.joined.begin(), st.joined.end(), false);
    return next;
}

bool membership_adopt(MembershipFsmState& st, const MembershipView& view) {
    if (view.epoch <= st.epoch) return false;
    st.epoch = view.epoch;
    st.members = view.members;
    std::fill(st.joined.begin(), st.joined.end(), false);
    return true;
}

}  // namespace gtopk::comm::fsm
