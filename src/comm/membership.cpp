#include "comm/membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "comm/comm_error.hpp"
#include "comm/tags.hpp"
#include "comm/wire_codec.hpp"

namespace gtopk::comm {

namespace {

std::chrono::steady_clock::duration host_dur(double seconds) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

// Regroup frame layout (little-endian):
//   JOIN  (kTagMembershipJoin): [u64 joiner's current epoch]
//   VIEW  (kTagMembershipView): [u64 epoch][u64 count][count x u32 ranks]
// The epoch inside JOIN lets the leader ignore resends that straggle in
// from an already-finalized round; both frames additionally carry the
// sender's current epoch in Message::epoch so the mailbox floors apply.

/// A control-plane frame: it never advances a virtual clock.
Message control_frame(int source, int tag, int epoch) {
    Message m;
    m.source = source;
    m.tag = tag;
    m.epoch = epoch;
    m.arrival_time_s = 0.0;
    return m;
}

}  // namespace

MembershipService::MembershipService(Transport& transport, MembershipConfig config)
    : transport_(transport), config_(config) {
    state_.assign(static_cast<std::size_t>(transport_.world_size()),
                  fsm::membership_init(transport_.world_size()));
}

std::vector<bool> MembershipService::fabric_alive() const {
    const int world = transport_.world_size();
    std::vector<bool> alive(static_cast<std::size_t>(world), true);
    for (int r = 0; r < world; ++r) {
        alive[static_cast<std::size_t>(r)] = transport_.rank_alive(r);
    }
    return alive;
}

MembershipView MembershipService::regroup(int rank) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        switch (fsm::membership_join(state_.at(static_cast<std::size_t>(rank)), rank,
                                     fabric_alive())) {
            case fsm::JoinVerdict::kNotLive:
                throw std::invalid_argument("regroup: rank not a live member");
            case fsm::JoinVerdict::kNotInView:
                throw std::invalid_argument("regroup: rank not in current view");
            case fsm::JoinVerdict::kJoined:
            case fsm::JoinVerdict::kAlreadyJoined:
                break;
        }
    }
    // Election is re-run by the follower loop every spin, so a rank that
    // becomes lowest-live mid-round (the previous leader was the casualty)
    // promotes itself.
    return follow(rank);
}

std::optional<MembershipView> MembershipService::take_view(int rank) {
    for (;;) {
        const auto vm = transport_.try_receive(rank, kAnySource, kTagMembershipView);
        if (!vm) return std::nullopt;
        if (vm->payload.size() < 16) continue;  // malformed: drop
        MembershipView view;
        const std::byte* p = vm->payload.data();
        view.epoch = static_cast<int>(get_u64(p));
        const std::uint64_t count = get_u64(p + 8);
        if (vm->payload.size() != 16 + 4 * count) continue;
        for (std::uint64_t i = 0; i < count; ++i) {
            view.members.push_back(static_cast<int>(get_u32(p + 16 + 4 * i)));
        }
        std::lock_guard<std::mutex> lock(mutex_);
        // Adopt the leader's agreement verbatim: same epoch, same members.
        if (!fsm::membership_adopt(state_[static_cast<std::size_t>(rank)], view)) {
            continue;  // straggling resend from an already-closed round
        }
        if (std::find(view.members.begin(), view.members.end(), rank) ==
            view.members.end()) {
            throw std::invalid_argument("regroup: rank voted out of the agreed view");
        }
        return view;
    }
}

MembershipView MembershipService::lead(int rank) {
    auto& st = state_[static_cast<std::size_t>(rank)];
    const auto grace_deadline = Clock::now() + host_dur(config_.join_grace_s);
    for (;;) {
        // A VIEW that reached this rank before its predecessor died is the
        // round's outcome; finalizing a second one would split the world.
        if (auto view = take_view(rank)) return *view;
        // Fold incoming JOINs into this rank's own FSM state.
        for (;;) {
            const auto jm = transport_.try_receive(rank, kAnySource, kTagMembershipJoin);
            if (!jm) break;
            if (jm->payload.size() != 8) continue;  // malformed: drop
            const std::uint64_t proposal = get_u64(jm->payload.data());
            std::lock_guard<std::mutex> lock(mutex_);
            if (proposal != static_cast<std::uint64_t>(st.epoch)) {
                continue;  // straggling resend from an already-closed round
            }
            (void)fsm::membership_join(st, jm->source, fabric_alive());
        }

        const bool grace_expired = Clock::now() >= grace_deadline;
        std::vector<int> recipients;
        std::optional<MembershipView> view;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const std::vector<bool> alive = fabric_alive();
            switch (fsm::membership_evaluate(st, alive, grace_expired)) {
                case fsm::RoundVerdict::kFinalizeAll:
                case fsm::RoundVerdict::kFinalizeQuorum:
                    recipients = fsm::membership_live_members(st, alive);
                    view = fsm::membership_finalize(st);
                    break;
                case fsm::RoundVerdict::kAbortNoQuorum:
                    throw std::runtime_error(
                        "regroup: join grace expired without a majority of "
                        "live members; refusing to finalize a minority view");
                case fsm::RoundVerdict::kWait:
                    break;
            }
        }
        if (!view) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
        }
        // Send the agreed view to every live member of the OLD view, in
        // ascending order: the members adopt it, and a straggler the round
        // voted out learns so and never leads the closed round itself. The
        // frames ride the reliable layer on lossy fabrics, so a lost TCP
        // segment is the ARQ's problem, not a second agreement round's.
        for (int m : recipients) {
            if (m == rank) continue;
            Message vm = control_frame(rank, kTagMembershipView, view->epoch);
            vm.payload.resize(16 + 4 * view->members.size());
            std::byte* p = vm.payload.data();
            p = put_u64(p, static_cast<std::uint64_t>(view->epoch));
            p = put_u64(p, view->members.size());
            for (int r : view->members) p = put_u32(p, static_cast<std::uint32_t>(r));
            try {
                transport_.deliver(m, std::move(vm));
            } catch (const CommError&) {
                // Member died after finalization; the NEXT round will vote
                // it out.
            }
        }
        return *view;
    }
}

MembershipView MembershipService::follow(int rank) {
    // Twice the leader's grace: the leader may burn a full window itself
    // before the VIEW goes out.
    const auto deadline = Clock::now() + host_dur(2.0 * config_.join_grace_s);
    auto next_join = Clock::now();
    for (;;) {
        if (auto view = take_view(rank)) return *view;
        // Re-elect from a fresh liveness snapshot: the leader is whatever
        // rank is CURRENTLY the lowest live member of this rank's view.
        int leader = rank;
        int my_epoch = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto& st = state_[static_cast<std::size_t>(rank)];
            leader = fsm::membership_leader(st, fabric_alive());
            my_epoch = st.epoch;
        }
        if (leader == rank) return lead(rank);

        const auto now = Clock::now();
        if (now >= next_join) {
            next_join = now + host_dur(0.1);
            Message jm = control_frame(rank, kTagMembershipJoin, my_epoch);
            jm.payload.resize(8);
            put_u64(jm.payload.data(), static_cast<std::uint64_t>(my_epoch));
            try {
                transport_.deliver(leader, std::move(jm));
            } catch (const CommError&) {
                continue;  // leader just died; re-elect on the next spin
            }
        }

        if (Clock::now() >= deadline) {
            // No agreed view reached this rank — the leader's round aborted
            // without quorum, or the leader never entered the round. Either
            // way it must NOT train on.
            throw std::runtime_error(
                "regroup: no agreed view from leader within the grace "
                "window; refusing to continue on a stale membership");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

bool MembershipService::alive(int rank) const {
    return rank >= 0 && rank < transport_.world_size() && transport_.rank_alive(rank);
}

MembershipView MembershipService::current(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& st = state_.at(static_cast<std::size_t>(rank));
    return MembershipView{st.epoch, st.members};
}

int MembershipService::epoch(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return state_.at(static_cast<std::size_t>(rank)).epoch;
}

}  // namespace gtopk::comm
