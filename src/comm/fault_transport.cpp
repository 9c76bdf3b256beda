#include "comm/fault_transport.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "comm/comm_error.hpp"
#include "obs/trace.hpp"

namespace gtopk::comm {

void corrupt_bytes(std::span<std::byte> bytes, util::Xoshiro256& rng, int flips) {
    if (bytes.empty()) return;
    for (int f = 0; f < flips; ++f) {
        const std::size_t byte_idx =
            static_cast<std::size_t>(rng.next_below(bytes.size()));
        const unsigned bit = static_cast<unsigned>(rng.next_below(8));
        bytes[byte_idx] ^= static_cast<std::byte>(1u << bit);
    }
}

FaultInjectingTransport::FaultInjectingTransport(std::unique_ptr<Transport> inner,
                                                 FaultPlan plan)
    : inner_(std::move(inner)), plan_(std::move(plan)) {
    if (!inner_) throw std::invalid_argument("FaultInjectingTransport: null inner");
    // The first matching rule wins, so a rule that an earlier rule matches
    // on every field (each a wildcard or equal) can never fire.
    const auto covers = [](int earlier, int later, int any) {
        return earlier == any || earlier == later;
    };
    for (std::size_t j = 0; j < plan_.rules.size(); ++j) {
        const FaultRule& later = plan_.rules[j];
        for (std::size_t i = 0; i < j; ++i) {
            const FaultRule& earlier = plan_.rules[i];
            if (covers(earlier.src, later.src, kAnySource) &&
                covers(earlier.dst, later.dst, kAnySource) &&
                covers(earlier.tag, later.tag, kAnyTag)) {
                throw std::invalid_argument(
                    "FaultPlan: rule " + std::to_string(j) + " is shadowed by rule " +
                    std::to_string(i) + " and can never fire");
            }
        }
    }
    const std::size_t world = static_cast<std::size_t>(inner_->world_size());
    edges_.resize(world * world);
    held_.resize(world * world);
    killed_ = std::vector<std::atomic<bool>>(world);
    kill_after_.assign(world, std::numeric_limits<std::uint64_t>::max());
    sends_attempted_.assign(world, 0);
    kill_at_step_.assign(world, std::numeric_limits<std::int64_t>::max());
    // Fork one independent, reproducible stream per directed edge; the
    // schedule depends only on (seed, plan, per-edge traffic), never on
    // thread interleaving (row src is touched by src's thread alone).
    const util::Xoshiro256 root(plan_.seed);
    for (std::size_t src = 0; src < world; ++src) {
        for (std::size_t dst = 0; dst < world; ++dst) {
            Edge& e = edges_[src * world + dst];
            e.rng = root.fork(static_cast<std::uint64_t>(src * world + dst));
            e.rule_hits.assign(plan_.rules.size(), 0);
        }
    }
    for (const KillSpec& k : plan_.kills) {
        if (k.rank < 0 || k.rank >= inner_->world_size()) {
            throw std::invalid_argument("FaultPlan: kill rank outside world");
        }
        if (k.at_progress >= 0) {
            kill_at_step_[static_cast<std::size_t>(k.rank)] =
                std::min(kill_at_step_[static_cast<std::size_t>(k.rank)],
                         k.at_progress);
        } else {
            kill_after_[static_cast<std::size_t>(k.rank)] =
                std::min(kill_after_[static_cast<std::size_t>(k.rank)], k.after_sends);
        }
    }
}

FaultInjectingTransport::FaultInjectingTransport(int world_size, FaultPlan plan)
    : FaultInjectingTransport(std::make_unique<InProcTransport>(world_size),
                              std::move(plan)) {}

void FaultInjectingTransport::count_event(std::atomic<std::uint64_t>& cell,
                                          obs::Counter* metric) {
    cell.fetch_add(1, std::memory_order_relaxed);
    if (metric) metric->add(1);
}

void FaultInjectingTransport::deliver(int dst, Message msg) {
    const int world = world_size();
    if (dst < 0 || dst >= world) throw std::out_of_range("deliver: bad rank");
    const int src = msg.source;
    if (src < 0 || src >= world) throw std::out_of_range("deliver: bad source");

    // Rank-kill: the (after_sends + 1)-th send attempt marks the sender
    // dead; that send and everything after it is swallowed.
    const std::size_t s = static_cast<std::size_t>(src);
    if (++sends_attempted_[s] > kill_after_[s]) {
        killed_[s].store(true, std::memory_order_release);
    }
    if (killed_[s].load(std::memory_order_acquire)) {
        count_event(killed_sends_, m_killed_sends_);
        return;
    }
    // A dead host receives nothing.
    if (killed_[static_cast<std::size_t>(dst)].load(std::memory_order_acquire)) {
        count_event(dropped_, m_dropped_);
        return;
    }

    bool dup = false;
    bool reorder = false;
    for (std::size_t ri = 0; ri < plan_.rules.size(); ++ri) {
        const FaultRule& rule = plan_.rules[ri];
        if (!rule.matches(src, dst, msg.tag)) continue;
        Edge& e = edge(src, dst);
        const std::uint64_t ordinal = ++e.rule_hits[ri];
        // Fixed draw order per matched message keeps the schedule a pure
        // function of the edge ordinal, whatever the probabilities are.
        const double u_drop = e.rng.next_double();
        const double u_dup = e.rng.next_double();
        const double u_reorder = e.rng.next_double();
        const double u_corrupt = e.rng.next_double();
        const double u_delay = e.rng.next_double();
        if ((rule.drop_every_n != 0 && ordinal % rule.drop_every_n == 0) ||
            u_drop < rule.drop_prob) {
            count_event(dropped_, m_dropped_);
            return;
        }
        if (u_delay < rule.delay_prob) {
            msg.arrival_time_s += rule.extra_delay_s;
            count_event(delayed_, m_delayed_);
        }
        if (u_corrupt < rule.corrupt_prob && !msg.payload.empty()) {
            corrupt_bytes(msg.payload, e.rng);
            count_event(corrupted_, m_corrupted_);
        }
        dup = u_dup < rule.dup_prob;
        reorder = (rule.reorder_every_n != 0 && ordinal % rule.reorder_every_n == 0) ||
                  u_reorder < rule.reorder_prob;
        break;  // first matching rule wins
    }

    // `reordered`/`duplicated` count DECISIONS (deterministic per edge);
    // parking is best-effort — an occupied slot (receiver not yet drained)
    // degrades the reorder to a plain in-order delivery.
    if (reorder) count_event(reordered_, m_reordered_);
    if (dup) count_event(duplicated_, m_duplicated_);

    const std::size_t slot_idx = static_cast<std::size_t>(src) *
                                     static_cast<std::size_t>(world) +
                                 static_cast<std::size_t>(dst);
    std::optional<Message> first;   // same-stream: must precede msg (FIFO)
    std::optional<Message> second;  // cross-stream: may follow msg
    {
        std::lock_guard<std::mutex> lock(held_mutex_);
        std::optional<Message>& slot = held_[slot_idx];
        if (reorder && !dup && !slot.has_value()) {
            slot = std::move(msg);
            return;
        }
        if (slot.has_value()) {
            if (slot->tag == msg.tag) {
                first = std::move(*slot);  // same (source, tag) stream: FIFO
            } else {
                second = std::move(*slot);  // cross-stream reorder realized
            }
            slot.reset();
        }
    }
    if (first) deliver_through(dst, std::move(*first));
    if (dup) {
        Message copy = msg;
        deliver_through(dst, std::move(copy));
    }
    deliver_through(dst, std::move(msg));
    if (second) deliver_through(dst, std::move(*second));
}

void FaultInjectingTransport::deliver_through(int dst, Message msg) {
    delivered_.fetch_add(1, std::memory_order_relaxed);
    inner_->deliver(dst, std::move(msg));
}

void FaultInjectingTransport::flush_held(int dst) {
    // Release every message parked for `dst`, whatever its source edge:
    // the receiver is actively waiting, so liveness beats adversarialness.
    const int world = world_size();
    std::vector<Message> release;
    {
        std::lock_guard<std::mutex> lock(held_mutex_);
        for (int src = 0; src < world; ++src) {
            std::optional<Message>& slot =
                held_[static_cast<std::size_t>(src) * static_cast<std::size_t>(world) +
                      static_cast<std::size_t>(dst)];
            if (slot.has_value()) {
                release.push_back(std::move(*slot));
                slot.reset();
            }
        }
    }
    for (Message& m : release) deliver_through(dst, std::move(m));
}

std::optional<Message> FaultInjectingTransport::try_receive(int rank, int source,
                                                            int tag) {
    if (rank_killed(rank)) {
        throw CommError(CommErrorKind::RankKilled, rank, source, tag, 0.0);
    }
    flush_held(rank);
    return inner_->try_receive(rank, source, tag);
}

void FaultInjectingTransport::shutdown() { inner_->shutdown(); }

std::size_t FaultInjectingTransport::pending_with_tag_at_least(int rank,
                                                               int min_tag) const {
    std::size_t held = 0;
    {
        std::lock_guard<std::mutex> lock(held_mutex_);
        for (int src = 0; src < world_size(); ++src) {
            const auto& slot = held_[static_cast<std::size_t>(src) *
                                         static_cast<std::size_t>(world_size()) +
                                     static_cast<std::size_t>(rank)];
            if (slot && slot->tag >= min_tag) ++held;
        }
    }
    return held + inner_->pending_with_tag_at_least(rank, min_tag);
}

void FaultInjectingTransport::begin_epoch(int rank, int epoch) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("begin_epoch: bad rank");
    }
    // A parked (reordered) stale-epoch message must never be released into
    // the new epoch: drop it here; the inner mailbox floor catches the rest.
    {
        std::lock_guard<std::mutex> lock(held_mutex_);
        for (int src = 0; src < world_size(); ++src) {
            std::optional<Message>& slot =
                held_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(world_size()) +
                      static_cast<std::size_t>(rank)];
            if (slot && slot->epoch < epoch) slot.reset();
        }
    }
    inner_->begin_epoch(rank, epoch);
}

void FaultInjectingTransport::on_progress(int rank, std::int64_t step) {
    if (rank < 0 || rank >= world_size()) return;
    if (step >= kill_at_step_[static_cast<std::size_t>(rank)]) {
        killed_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
    }
    inner_->on_progress(rank, step);
}

void FaultInjectingTransport::kill_rank(int rank) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("kill_rank: bad rank");
    }
    killed_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
}

bool FaultInjectingTransport::rank_killed(int rank) const {
    if (rank < 0 || rank >= world_size()) return false;
    return killed_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

FaultCounts FaultInjectingTransport::counts() const {
    FaultCounts c;
    c.delivered = delivered_.load(std::memory_order_relaxed);
    c.dropped = dropped_.load(std::memory_order_relaxed);
    c.duplicated = duplicated_.load(std::memory_order_relaxed);
    c.reordered = reordered_.load(std::memory_order_relaxed);
    c.corrupted = corrupted_.load(std::memory_order_relaxed);
    c.delayed = delayed_.load(std::memory_order_relaxed);
    c.killed_sends = killed_sends_.load(std::memory_order_relaxed);
    return c;
}

void FaultInjectingTransport::set_tracer(obs::Tracer* tracer) {
    if (tracer) {
        obs::MetricsRegistry& m = tracer->metrics();
        m_dropped_ = &m.counter("fault.dropped");
        m_duplicated_ = &m.counter("fault.duplicated");
        m_reordered_ = &m.counter("fault.reordered");
        m_corrupted_ = &m.counter("fault.corrupted");
        m_delayed_ = &m.counter("fault.delayed");
        m_killed_sends_ = &m.counter("fault.killed_sends");
    } else {
        m_dropped_ = nullptr;
        m_duplicated_ = nullptr;
        m_reordered_ = nullptr;
        m_corrupted_ = nullptr;
        m_delayed_ = nullptr;
        m_killed_sends_ = nullptr;
    }
    inner_->set_tracer(tracer);
}

}  // namespace gtopk::comm
