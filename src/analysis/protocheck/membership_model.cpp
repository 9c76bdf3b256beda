#include "analysis/protocheck/membership_model.hpp"

#include <algorithm>
#include <bit>

namespace gtopk::analysis::protocheck {

namespace fsm = comm::fsm;

namespace {

using Frame = MembershipModel::Frame;
using Mode = MembershipModel::Mode;

std::uint32_t mask_of(const std::vector<int>& ranks) {
    std::uint32_t m = 0;
    for (const int r : ranks) m |= 1u << r;
    return m;
}

std::uint32_t mask_of(const std::vector<bool>& flags) {
    std::uint32_t m = 0;
    for (std::size_t r = 0; r < flags.size(); ++r) m |= flags[r] ? 1u << r : 0u;
    return m;
}

std::vector<int> ranks_of(std::uint32_t mask, int world) {
    std::vector<int> out;
    for (int r = 0; r < world; ++r) {
        if (mask & (1u << r)) out.push_back(r);
    }
    return out;
}

void add_frame(MembershipModel::State& s, const Frame& f) {
    const auto it = std::lower_bound(s.frames.begin(), s.frames.end(), f);
    if (it == s.frames.end() || *it != f) s.frames.insert(it, f);
}

/// The service polls VIEW frames first, so a leader never evaluates while
/// a VIEW newer than its own view is waiting in its mailbox.
bool newer_view_pending(const MembershipModel::State& s, int rank) {
    const int epoch = s.ranks[static_cast<std::size_t>(rank)].fsm.epoch;
    return std::any_of(s.frames.begin(), s.frames.end(), [&](const Frame& f) {
        return f.kind == Frame::Kind::kView && f.dst == rank && f.epoch > epoch;
    });
}

/// Drop the frames whose take can no longer change anything: those to a
/// dead rank, a VIEW no newer than its receiver's view, and a JOIN that
/// is stale, from a dead sender, or already admitted (epochs only grow and
/// the dead stay dead, so each stays a no-op forever). Keeps equivalent
/// states from multiplying by their leftover mail.
void drop_inert_frames(MembershipModel::State& s) {
    std::erase_if(s.frames, [&](const Frame& f) {
        const std::size_t d = static_cast<std::size_t>(f.dst);
        if (!s.fabric_alive[d]) return true;
        const auto& dst = s.ranks[d].fsm;
        if (f.kind == Frame::Kind::kView) return f.epoch <= dst.epoch;
        return f.epoch != dst.epoch || !s.fabric_alive[static_cast<std::size_t>(f.src)] ||
               dst.joined[static_cast<std::size_t>(f.src)];
    });
}

/// A follower's election step: lead when it is the lowest live member of
/// its own view, else send its JOIN to that leader (once per leader: the
/// service's timed resends to the same leader are idempotent).
void elect(MembershipModel::State& s, int rank) {
    auto& rs = s.ranks[static_cast<std::size_t>(rank)];
    const int leader = fsm::membership_leader(rs.fsm, s.fabric_alive);
    if (leader == rank) {
        rs.mode = Mode::kLeader;
        rs.grace_expired = false;
    } else if (leader != rs.join_sent_to) {
        rs.join_sent_to = leader;
        add_frame(s, {Frame::Kind::kJoin, leader, rank, rs.fsm.epoch, 0});
    }
}

/// `rank` installs `view` over `prev`: the spec checks, then the record.
void install(MembershipModel::State& s, int rank,
             const fsm::MembershipFsmState& prev, const comm::MembershipView& view) {
    const std::uint32_t mask = mask_of(view.members);
    const bool split = std::any_of(s.installed.begin(), s.installed.end(), [&](const auto& i) {
        return i.epoch == view.epoch && i.members != mask;
    });
    if (!s.violation.empty()) {
        // keep the first violation
    } else if (view.epoch != prev.epoch + 1) {
        s.violation = "epoch-skip";
    } else if ((mask & ~mask_of(prev.members)) != 0) {
        s.violation = "member-resurrection";
    } else if (split) {
        s.violation = "split-brain";
    }
    const MembershipModel::Install rec{rank, view.epoch, mask};
    s.installed.insert(
        std::lower_bound(s.installed.begin(), s.installed.end(), rec), rec);
}

}  // namespace

MembershipModel::State MembershipModel::initial() const {
    State s;
    const std::size_t w = static_cast<std::size_t>(cfg_.world);
    s.ranks.resize(w);
    for (auto& r : s.ranks) {
        r.fsm = fsm::membership_init(cfg_.world);
        r.joins_left = cfg_.joins_per_rank;
    }
    s.fabric_alive.assign(w, true);
    s.kills_left = cfg_.max_kills;
    return s;
}

std::vector<MembershipModel::Action> MembershipModel::actions(const State& s) const {
    std::vector<Action> out;
    if (!s.violation.empty()) return out;  // violating states are terminal
    for (int r = 0; r < cfg_.world; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        if (!s.fabric_alive[ri]) continue;  // the dead take no steps
        const RankState& rs = s.ranks[ri];
        if (s.kills_left > 0) out.push_back({Action::Kind::kKill, r});
        const auto take = [&](Frame::Kind kind, Action::Kind action) {
            for (const Frame& f : s.frames) {
                if (f.kind == kind && f.dst == r) out.push_back({action, r, f});
            }
        };
        switch (rs.mode) {
            case Mode::kIdle:
                if (rs.joins_left > 0) {
                    // Enumerate the call only when it would be admitted (a
                    // refused join throws in the service and changes
                    // nothing).
                    fsm::MembershipFsmState probe = rs.fsm;
                    const fsm::JoinVerdict v =
                        fsm::membership_join(probe, r, s.fabric_alive);
                    if (v == fsm::JoinVerdict::kJoined ||
                        v == fsm::JoinVerdict::kAlreadyJoined) {
                        out.push_back({Action::Kind::kJoin, r});
                    }
                }
                break;
            case Mode::kFollower: {
                take(Frame::Kind::kView, Action::Kind::kTakeView);
                // A kill moved the election: promote, or re-send the JOIN.
                const int leader = fsm::membership_leader(rs.fsm, s.fabric_alive);
                if (leader == r || leader != rs.join_sent_to) {
                    out.push_back({Action::Kind::kElect, r});
                }
                out.push_back({Action::Kind::kDeadline, r});
                break;
            }
            case Mode::kLeader:
                take(Frame::Kind::kView, Action::Kind::kTakeView);
                take(Frame::Kind::kJoin, Action::Kind::kTakeJoin);
                if (!rs.grace_expired) out.push_back({Action::Kind::kGraceExpire, r});
                if (!newer_view_pending(s, r) &&
                    fsm::membership_evaluate(rs.fsm, s.fabric_alive,
                                             rs.grace_expired) !=
                        fsm::RoundVerdict::kWait) {
                    out.push_back({Action::Kind::kEvaluate, r});
                }
                break;
            case Mode::kBroadcast:
                out.push_back({Action::Kind::kSendView, r});
                break;
        }
    }
    return out;
}

MembershipModel::State MembershipModel::apply(const State& prev,
                                              const Action& a) const {
    State s = prev;
    const int r = a.rank;
    RankState& rs = s.ranks[static_cast<std::size_t>(r)];
    switch (a.kind) {
        case Action::Kind::kJoin:
            // The first spin of the service's follower loop elects at once;
            // its JOIN only becomes available earlier than in the service,
            // and a frame's taker may always wait.
            (void)fsm::membership_join(rs.fsm, r, s.fabric_alive);
            rs.mode = Mode::kFollower;
            rs.join_sent_to = -1;
            --rs.joins_left;
            elect(s, r);
            break;
        case Action::Kind::kElect:
            elect(s, r);
            break;
        case Action::Kind::kTakeJoin:
            s.frames.erase(std::find(s.frames.begin(), s.frames.end(), a.frame));
            // A JOIN from an already-closed round is stale and dropped.
            if (a.frame.epoch == rs.fsm.epoch) {
                (void)fsm::membership_join(rs.fsm, a.frame.src, s.fabric_alive);
            }
            break;
        case Action::Kind::kTakeView: {
            s.frames.erase(std::find(s.frames.begin(), s.frames.end(), a.frame));
            const comm::MembershipView view{a.frame.epoch,
                                            ranks_of(a.frame.members, cfg_.world)};
            const fsm::MembershipFsmState before = rs.fsm;
            if (!fsm::membership_adopt(rs.fsm, view)) break;  // stale
            rs.mode = Mode::kIdle;
            // A VIEW without this rank votes it out: it holds the view only
            // to refuse every later join, and never trains on it.
            if (a.frame.members & (1u << r)) install(s, r, before, view);
            break;
        }
        case Action::Kind::kGraceExpire:
            rs.grace_expired = true;
            break;
        case Action::Kind::kEvaluate: {
            const fsm::RoundVerdict v =
                fsm::membership_evaluate(rs.fsm, s.fabric_alive, rs.grace_expired);
            if (v == fsm::RoundVerdict::kWait) break;  // disabled; defensive
            rs.mode = Mode::kIdle;
            if (v == fsm::RoundVerdict::kAbortNoQuorum) break;  // throws upstream
            // Spec-side quorum check, computed independently of the FSM's
            // own verdict: a finalization is legitimate only when every
            // live member joined or a strict majority of them did.
            const std::vector<int> live =
                fsm::membership_live_members(rs.fsm, s.fabric_alive);
            const std::size_t joined_live = static_cast<std::size_t>(
                std::count_if(live.begin(), live.end(), [&](int m) {
                    return rs.fsm.joined[static_cast<std::size_t>(m)];
                }));
            if (joined_live < live.size() && joined_live * 2 <= live.size()) {
                s.violation = "quorum-violation";
            }
            const fsm::MembershipFsmState before = rs.fsm;
            const comm::MembershipView view = fsm::membership_finalize(rs.fsm);
            install(s, r, before, view);
            // The VIEW goes to every live member of the old view, ascending.
            rs.outbox = mask_of(live) & ~(1u << r);
            if (rs.outbox != 0) rs.mode = Mode::kBroadcast;
            break;
        }
        case Action::Kind::kSendView: {
            const int dst = std::countr_zero(rs.outbox);
            rs.outbox &= rs.outbox - 1;
            if (s.fabric_alive[static_cast<std::size_t>(dst)]) {
                add_frame(s, {Frame::Kind::kView, dst, 0, rs.fsm.epoch,
                              mask_of(rs.fsm.members)});
            }
            if (rs.outbox == 0) rs.mode = Mode::kIdle;
            break;
        }
        case Action::Kind::kDeadline:
            rs.mode = Mode::kIdle;
            break;
        case Action::Kind::kKill:
            s.fabric_alive[static_cast<std::size_t>(r)] = false;
            --s.kills_left;
            rs.mode = Mode::kIdle;
            rs.outbox = 0;
            std::erase_if(s.installed, [&](const Install& i) { return i.rank == r; });
            break;
    }
    drop_inert_frames(s);
    return s;
}

std::string MembershipModel::describe(const Action& a) const {
    const std::string r = std::to_string(a.rank);
    const std::string e = std::to_string(a.frame.epoch);
    switch (a.kind) {
        case Action::Kind::kJoin: return "join(" + r + ")";
        case Action::Kind::kElect: return "elect(" + r + ")";
        case Action::Kind::kTakeJoin:
            return "take-join(" + r + "<-" + std::to_string(a.frame.src) + ",e" + e + ")";
        case Action::Kind::kTakeView:
            return "take-view(" + r + ",e" + e + ",mask" + std::to_string(a.frame.members) + ")";
        case Action::Kind::kGraceExpire: return "grace-expire(" + r + ")";
        case Action::Kind::kEvaluate: return "evaluate(" + r + ")";
        case Action::Kind::kSendView: return "send-view(" + r + ")";
        case Action::Kind::kDeadline: return "deadline(" + r + ")";
        case Action::Kind::kKill: return "kill(" + r + ")";
    }
    return "?";
}

std::optional<std::string> MembershipModel::check(const State& s) const {
    if (!s.violation.empty()) return s.violation;
    return std::nullopt;
}

bool MembershipModel::is_goal(const State& s) const {
    // The dead are forced idle, so this reads "no live rank is inside
    // regroup()".
    return std::all_of(s.ranks.begin(), s.ranks.end(),
                       [](const RankState& r) { return r.mode == Mode::kIdle; });
}

bool MembershipModel::is_fair(const Action& a) const {
    return a.kind != Action::Kind::kJoin && a.kind != Action::Kind::kKill;
}

std::vector<std::uint64_t> MembershipModel::encode(const State& s) const {
    std::vector<std::uint64_t> e{static_cast<std::uint64_t>(s.kills_left)};
    for (std::size_t i = 0; i < s.ranks.size(); ++i) {
        const RankState& r = s.ranks[i];
        // Timers and the JOIN target only matter in the mode that reads
        // them; leaving them out elsewhere merges equivalent states.
        const bool leads = r.mode == Mode::kLeader;
        const bool follows = r.mode == Mode::kFollower;
        e.push_back(static_cast<std::uint64_t>(r.fsm.epoch) |
                    std::uint64_t{mask_of(r.fsm.members)} << 8 |
                    std::uint64_t{mask_of(r.fsm.joined)} << 16 |
                    static_cast<std::uint64_t>(r.mode) << 24 |
                    std::uint64_t{leads && r.grace_expired} << 26 |
                    std::uint64_t{s.fabric_alive[i]} << 27 |
                    static_cast<std::uint64_t>(follows ? r.join_sent_to + 1 : 0) << 28 |
                    static_cast<std::uint64_t>(r.joins_left) << 32 |
                    std::uint64_t{r.outbox} << 40);
    }
    e.push_back(s.frames.size());
    for (const Frame& f : s.frames) {
        e.push_back(static_cast<std::uint64_t>(f.kind) | static_cast<std::uint64_t>(f.dst) << 4 |
                    static_cast<std::uint64_t>(f.src) << 8 |
                    static_cast<std::uint64_t>(f.epoch) << 16 |
                    std::uint64_t{f.members} << 32);
    }
    for (const Install& i : s.installed) {
        e.push_back(static_cast<std::uint64_t>(i.rank) |
                    static_cast<std::uint64_t>(i.epoch) << 8 |
                    std::uint64_t{i.members} << 32);
    }
    return e;
}

}  // namespace gtopk::analysis::protocheck
