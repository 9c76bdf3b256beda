#include "analysis/protocheck/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "comm/fault_transport.hpp"
#include "comm/membership.hpp"
#include "comm/reliable_transport.hpp"
#include "comm/tags.hpp"
#include "util/rng.hpp"

namespace gtopk::analysis::protocheck {

namespace {

constexpr int kAppTag = 7;  // arbitrary user tag for replay payloads

/// A fully scripted world-2 fabric: every envelope ReliableTransport sends
/// is STAGED invisible to the receiver until the trace releases, drops,
/// duplicates or corrupts it — the trace IS the network schedule.
class ScriptedTransport final : public comm::Transport {
public:
    explicit ScriptedTransport(int world)
        : alive_(static_cast<std::size_t>(world), true),
          staged_(static_cast<std::size_t>(world)),
          ready_(static_cast<std::size_t>(world)) {}

    int world_size() const override { return static_cast<int>(staged_.size()); }

    void deliver(int dst, comm::Message msg) override {
        staged_[static_cast<std::size_t>(dst)].push_back(
            {std::move(msg), /*corrupt=*/false});
    }

    std::optional<comm::Message> try_receive(int rank, int source,
                                             int tag) override {
        auto& q = ready_[static_cast<std::size_t>(rank)];
        for (auto it = q.begin(); it != q.end(); ++it) {
            if ((source == comm::kAnySource || it->source == source) &&
                (tag == comm::kAnyTag || it->tag == tag)) {
                comm::Message m = std::move(*it);
                q.erase(it);
                return m;
            }
        }
        return std::nullopt;
    }

    void shutdown() override {}
    bool rank_alive(int rank) const override {
        return alive_[static_cast<std::size_t>(rank)];
    }

    // --- trace controls ----------------------------------------------------

    /// Envelope seq lives at bytes [8,16) of the reliable wire format.
    static std::uint64_t staged_seq(const comm::Message& m) {
        std::uint64_t v = 0;
        if (m.payload.size() >= 16) std::memcpy(&v, m.payload.data() + 8, 8);
        return v;
    }

    bool release(int dst, std::uint64_t seq, int epoch, bool corrupt) {
        auto* e = find(dst, seq, epoch, corrupt);
        if (!e) return false;
        ready_[static_cast<std::size_t>(dst)].push_back(std::move(e->msg));
        erase(dst, e);
        return true;
    }

    bool drop(int dst, std::uint64_t seq, int epoch, bool corrupt) {
        auto* e = find(dst, seq, epoch, corrupt);
        if (!e) return false;
        erase(dst, e);
        return true;
    }

    bool duplicate(int dst, std::uint64_t seq, int epoch, bool corrupt) {
        auto* e = find(dst, seq, epoch, corrupt);
        if (!e) return false;
        staged_[static_cast<std::size_t>(dst)].push_back(*e);
        return true;
    }

    bool corrupt(int dst, std::uint64_t seq, int epoch) {
        auto* e = find(dst, seq, epoch, /*corrupt=*/false);
        if (!e || e->msg.payload.empty()) return false;
        e->msg.payload.back() ^= std::byte{0xff};  // checksum now fails
        e->corrupt = true;
        return true;
    }

    void kill(int rank) { alive_[static_cast<std::size_t>(rank)] = false; }

private:
    struct Staged {
        comm::Message msg;
        bool corrupt = false;
    };

    Staged* find(int dst, std::uint64_t seq, int epoch, bool corrupt) {
        for (auto& e : staged_[static_cast<std::size_t>(dst)]) {
            if (staged_seq(e.msg) == seq && e.msg.epoch == epoch &&
                e.corrupt == corrupt) {
                return &e;
            }
        }
        return nullptr;
    }

    void erase(int dst, Staged* e) {
        auto& v = staged_[static_cast<std::size_t>(dst)];
        v.erase(v.begin() + (e - v.data()));
    }

    std::vector<bool> alive_;
    std::vector<std::vector<Staged>> staged_;
    std::vector<std::vector<comm::Message>> ready_;
};

}  // namespace

ArqReplayResult replay_arq_trace(const ArqModelConfig& cfg,
                                 const std::vector<ArqModel::Action>& trace) {
    (void)cfg;
    auto scripted_owner = std::make_unique<ScriptedTransport>(2);
    ScriptedTransport* scripted = scripted_owner.get();
    comm::ReliableConfig rcfg;
    rcfg.initial_backoff_s = 1e9;  // recovery fires only via recover_now
    rcfg.max_backoff_s = 1e9;
    comm::ReliableTransport reliable(std::move(scripted_owner), rcfg);

    ArqReplayResult result;
    const auto drain = [&] {
        while (auto msg = reliable.try_receive(1, 0, kAppTag)) {
            std::uint64_t app_seq = 0;
            if (msg->payload.size() >= 8) {
                std::memcpy(&app_seq, msg->payload.data(), 8);
            }
            result.delivered.push_back(app_seq);
        }
    };

    std::uint64_t next_app_seq = 0;
    int send_epoch = 0;
    int floor = 0;
    using Kind = ArqModel::Action::Kind;
    for (const ArqModel::Action& a : trace) {
        const ArqModel::Flight& f = a.flight;
        switch (a.kind) {
            case Kind::kSend: {
                comm::Message m;
                m.source = 0;
                m.tag = kAppTag;
                m.epoch = send_epoch;
                m.payload.resize(8);
                ++next_app_seq;
                std::memcpy(m.payload.data(), &next_app_seq, 8);
                reliable.deliver(1, std::move(m));
                break;
            }
            case Kind::kDeliver:
                scripted->release(1, f.seq, f.epoch, f.corrupt);
                break;
            case Kind::kDrop:
                scripted->drop(1, f.seq, f.epoch, f.corrupt);
                break;
            case Kind::kDup:
                scripted->duplicate(1, f.seq, f.epoch, f.corrupt);
                break;
            case Kind::kCorrupt:
                scripted->corrupt(1, f.seq, f.epoch);
                break;
            case Kind::kRecover:
                reliable.recover_now(1);
                break;
            case Kind::kKillSender:
                scripted->kill(0);
                break;
            case Kind::kEpochBump:
                ++floor;
                send_epoch = floor;
                reliable.begin_epoch(1, floor);
                break;
        }
        drain();
    }
    drain();

    const comm::ReliableCounts c = reliable.counts();
    result.retransmits = c.retransmits;
    result.corrupt_dropped = c.corrupt_dropped;
    result.dup_dropped = c.dup_dropped;
    result.stale_skipped = c.stale_skipped;
    return result;
}

ArqModelOutcome simulate_arq_trace(const ArqModelConfig& cfg,
                                   const std::vector<ArqModel::Action>& trace) {
    const ArqModel model(cfg);
    ArqModel::State s = model.initial();
    for (const ArqModel::Action& a : trace) s = model.apply(s, a);
    ArqModelOutcome out;
    out.violation = s.violation;
    for (std::uint64_t seq = 1; seq <= s.fate.size(); ++seq) {
        if (s.fate[seq - 1] == ArqModel::SeqFate::kDelivered) {
            out.predicted.delivered.push_back(seq);
        }
    }
    out.predicted.retransmits = s.counts.retransmits;
    out.predicted.corrupt_dropped = s.counts.corrupt_dropped;
    out.predicted.dup_dropped = s.counts.dup_dropped;
    out.predicted.stale_skipped = s.counts.stale_skipped;
    return out;
}

namespace {

std::string seq_list(const std::vector<std::uint64_t>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(v[i]);
    }
    return out + "]";
}

}  // namespace

std::optional<std::string> arq_conformance_diff(
    const ArqModelConfig& cfg, const std::vector<ArqModel::Action>& trace) {
    const ArqModelOutcome model = simulate_arq_trace(cfg, trace);
    if (!model.violation.empty()) {
        return "model trace is violating (" + model.violation +
               "); conformance diff expects invariant-clean traces";
    }
    const ArqReplayResult real = replay_arq_trace(cfg, trace);
    if (real.delivered != model.predicted.delivered) {
        return "delivered sequence diverged: real " + seq_list(real.delivered) +
               " vs model " + seq_list(model.predicted.delivered);
    }
    const auto diff_count = [](const char* name, std::uint64_t r,
                               std::uint64_t m) -> std::optional<std::string> {
        if (r == m) return std::nullopt;
        return std::string(name) + " diverged: real " + std::to_string(r) +
               " vs model " + std::to_string(m);
    };
    if (auto d = diff_count("retransmits", real.retransmits,
                            model.predicted.retransmits)) {
        return d;
    }
    if (auto d = diff_count("corrupt_dropped", real.corrupt_dropped,
                            model.predicted.corrupt_dropped)) {
        return d;
    }
    if (auto d = diff_count("dup_dropped", real.dup_dropped,
                            model.predicted.dup_dropped)) {
        return d;
    }
    if (auto d = diff_count("stale_skipped", real.stale_skipped,
                            model.predicted.stale_skipped)) {
        return d;
    }
    return std::nullopt;
}

std::optional<std::string> arq_random_conformance(const ArqModelConfig& cfg,
                                                  int samples, int max_steps,
                                                  std::uint64_t seed) {
    const ArqModel model(cfg);
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < samples; ++i) {
        ArqModel::State s = model.initial();
        std::vector<ArqModel::Action> trace;
        for (int step = 0; step < max_steps; ++step) {
            const std::vector<ArqModel::Action> acts = model.actions(s);
            if (acts.empty()) break;
            const std::size_t pick = static_cast<std::size_t>(
                rng.next_u64() % acts.size());
            trace.push_back(acts[pick]);
            s = model.apply(s, acts[pick]);
        }
        if (auto d = arq_conformance_diff(cfg, trace)) {
            return "sample " + std::to_string(i) + " (" +
                   std::to_string(trace.size()) + " steps): " + *d;
        }
    }
    return std::nullopt;
}

namespace {

/// An agreed view as (epoch, member bitmask): ordered by epoch, so a set of
/// them lists a run's distinct views in epoch order.
using ViewKey = std::pair<int, std::uint32_t>;

/// Drive a real MembershipService through the Join/Kill skeleton of
/// `trace` (frame sends and takes, elections, evaluations and timer
/// expiries are the service's own clockwork: replay uses a short real
/// grace window and waits joins out) and collect the distinct views its
/// regroup() calls returned. Outcomes are deterministic as long as every
/// trace action lands well inside the grace window, which the generous
/// pacing guarantees.
std::set<ViewKey> replay_membership_trace(
    const MembershipModelConfig& cfg,
    const std::vector<MembershipModel::Action>& trace) {
    comm::FaultInjectingTransport fabric(cfg.world, comm::FaultPlan{});
    comm::MembershipConfig mcfg;
    // Generous grace: every trace action must land well inside the window
    // so the real outcome is a function of the trace, not the scheduler.
    mcfg.join_grace_s = 1.5;
    comm::MembershipService svc(fabric, mcfg);

    std::vector<std::optional<comm::MembershipView>> views(trace.size());
    std::vector<std::thread> joiners;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const MembershipModel::Action& a = trace[i];
        if (a.kind == MembershipModel::Action::Kind::kJoin) {
            joiners.emplace_back([&svc, &views, i, rank = a.rank] {
                try {
                    views[i] = svc.regroup(rank);
                } catch (const std::exception&) {
                    // Refused or aborted: no view.
                }
            });
        } else if (a.kind == MembershipModel::Action::Kind::kKill) {
            fabric.kill_rank(a.rank);
        }
        // Pace actions so each lands before the next (join registration,
        // fast-path finalization) while staying far from the grace bound.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    for (auto& t : joiners) t.join();

    std::set<ViewKey> out;
    for (const auto& v : views) {
        if (!v) continue;
        std::uint32_t mask = 0;
        for (const int m : v->members) mask |= 1u << m;
        out.emplace(v->epoch, mask);
    }
    return out;
}

}  // namespace

std::optional<std::string> membership_conformance_diff(
    const MembershipModelConfig& cfg,
    const std::vector<MembershipModel::Action>& trace) {
    // Model-side prediction: the views its ranks installed along the trace.
    const MembershipModel model(cfg);
    MembershipModel::State s = model.initial();
    for (const MembershipModel::Action& a : trace) s = model.apply(s, a);
    std::set<ViewKey> predicted;
    for (const auto& i : s.installed) predicted.emplace(i.epoch, i.members);

    // Every view the model installed must be realized, in order (the real
    // service may finalize FURTHER rounds after the trace's horizon — its
    // grace clock keeps running — so prefix agreement is the contract).
    const std::set<ViewKey> real = replay_membership_trace(cfg, trace);
    if (predicted.size() > real.size() ||
        !std::equal(predicted.begin(), predicted.end(), real.begin())) {
        return "model installed " + std::to_string(predicted.size()) +
               " view(s) the real service's " + std::to_string(real.size()) +
               " do not start with";
    }
    return std::nullopt;
}

}  // namespace gtopk::analysis::protocheck
