#include "comm/communicator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "comm/tags.hpp"
#include "obs/trace.hpp"

namespace gtopk::comm {

Communicator::Communicator(Transport& transport, int rank, NetworkModel model)
    : async_tag_counter_(kAsyncTagBase),
      transport_(transport),
      rank_(rank),
      logical_rank_(rank),
      model_(model) {
    if (rank < 0 || rank >= transport.world_size()) {
        throw std::out_of_range("Communicator: rank outside world");
    }
}

void Communicator::set_view(std::vector<int> members, int epoch) {
    if (members.empty()) throw std::invalid_argument("set_view: empty view");
    if (epoch < epoch_) throw std::invalid_argument("set_view: epoch must not regress");
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] < 0 || members[i] >= transport_.world_size()) {
            throw std::invalid_argument("set_view: member outside world");
        }
        if (i > 0 && members[i] <= members[i - 1]) {
            throw std::invalid_argument("set_view: members must be sorted unique");
        }
    }
    const auto self = std::find(members.begin(), members.end(), rank_);
    if (self == members.end()) {
        throw std::invalid_argument("set_view: this rank is not a member");
    }
    logical_rank_ = static_cast<int>(self - members.begin());
    view_members_ = std::move(members);
    epoch_ = epoch;
    // Ranks reach a regroup from wherever the failure found them, so their
    // tag cursors may disagree. Restarting at the base resynchronizes the
    // SPMD lockstep; reuse of pre-regroup tags is safe because the epoch
    // floor below rejects every stale message before it can match.
    async_tag_counter_ = kAsyncTagBase;
    transport_.begin_epoch(rank_, epoch_);
}

int Communicator::to_physical(int logical_peer) const {
    if (view_members_.empty() || logical_peer == kAnySource) return logical_peer;
    if (logical_peer < 0 || logical_peer >= static_cast<int>(view_members_.size())) {
        throw std::out_of_range("peer outside current view");
    }
    return view_members_[static_cast<std::size_t>(logical_peer)];
}

int Communicator::fresh_async_tags(int count) {
    if (count < 0) throw std::invalid_argument("fresh_async_tags: negative count");
    if (count > std::numeric_limits<int>::max() - kAsyncTagBase) {
        throw std::invalid_argument("fresh_async_tags: count exceeds tag space");
    }
    if (async_tag_counter_ > std::numeric_limits<int>::max() - count) {
        // Out of band: wrap back to the base. Every rank starts the same
        // handles in the same order (SPMD lockstep), so all ranks wrap at
        // the same handle boundary and matching handles still agree on the
        // block. Reuse is only safe if no message carrying an old async tag
        // is still queued for this rank — a stale tag could steal a future
        // match. The check starts ABOVE the block being allocated: peers
        // that already wrapped may have legitimately sent this handle's
        // messages with tags from the new block [kAsyncTagBase,
        // kAsyncTagBase + count), and at P in the hundreds some always have
        // (the fast ranks enter the collective while the slow ones are
        // still allocating). Anything at or past the block end is genuinely
        // stale. (Transports that cannot inspect their queues report 0
        // pending, degrading this to an unchecked wrap.)
        const std::size_t in_flight =
            transport_.pending_with_tag_at_least(rank_, kAsyncTagBase + count);
        if (in_flight != 0) {
            throw std::logic_error(
                "fresh_async_tags: async tag band exhausted on rank " +
                std::to_string(rank_) + " with " + std::to_string(in_flight) +
                " async-band message(s) still pending; cannot wrap safely");
        }
        async_tag_counter_ = kAsyncTagBase;
    }
    const int base = async_tag_counter_;
    async_tag_counter_ += count;
    return base;
}

void Communicator::add_progress_source(ProgressSource* source) {
    if (!source) throw std::invalid_argument("add_progress_source: null source");
    if (progress_sources_.empty()) {
        // No handle in flight: every future transfer's dependency time is at
        // or after the current clock, so NIC occupancy that already ended is
        // unreachable — drop it to keep the busy list bounded across
        // iterations.
        const double now = clock_.now_s();
        std::erase_if(nic_busy_,
                      [now](const std::pair<double, double>& iv) {
                          return iv.second <= now;
                      });
    }
    progress_sources_.push_back(source);
}

void Communicator::remove_progress_source(ProgressSource* source) {
    progress_sources_.erase(
        std::remove(progress_sources_.begin(), progress_sources_.end(), source),
        progress_sources_.end());
}

bool Communicator::pump_progress() {
    if (progress_sources_.empty()) return false;
    // A lone source (every blocking collective) needs no order and no
    // snapshot, and so no allocation.
    if (progress_sources_.size() == 1) return progress_sources_.front()->pump_some();
    // Snapshot + priority order per round: a pump may complete (and so
    // unregister) a handle, and the P3 drain order wants front-layer
    // buckets served first. The snapshot reuses one buffer and a stable
    // insertion sort orders it in place: a handful of handles, no
    // allocation per poll.
    pump_round_.assign(progress_sources_.begin(), progress_sources_.end());
    for (std::size_t i = 1; i < pump_round_.size(); ++i) {
        ProgressSource* const s = pump_round_[i];
        const int priority = s->pump_priority();
        std::size_t j = i;
        for (; j > 0 && pump_round_[j - 1]->pump_priority() > priority; --j) {
            pump_round_[j] = pump_round_[j - 1];
        }
        pump_round_[j] = s;
    }
    bool any = false;
    for (ProgressSource* s : pump_round_) {
        if (s->pump_some()) any = true;
    }
    return any;
}

void Communicator::set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_) {
        obs::MetricsRegistry& m = tracer_->metrics();
        m_bytes_sent_ = &m.counter("comm.bytes_sent");
        m_bytes_received_ = &m.counter("comm.bytes_received");
        m_message_bytes_ = &m.histogram("comm.message_bytes");
    } else {
        m_bytes_sent_ = nullptr;
        m_bytes_received_ = nullptr;
        m_message_bytes_ = nullptr;
    }
}

double Communicator::send_async(int dst, int tag, std::vector<std::byte>&& payload,
                                double earliest_start_s) {
    if (dst == logical_rank_) throw std::invalid_argument("send to self is not allowed");
    const int phys_dst = to_physical(dst);

    const double cost = model_.transfer_time_s(payload.size());
    const double start = reserve_nic(earliest_start_s, cost);
    const double end = start + cost;
    stats_.messages_sent += 1;
    stats_.bytes_sent += payload.size();
    if (tracer_) {
        m_bytes_sent_->add(payload.size());
        m_message_bytes_->record(payload.size());
        // On the NIC timeline — a ScopedSpan would stamp the (untouched)
        // rank clock and render as zero-width.
        tracer_->record_detached(
            {.name = "send_async", .category = "comm", .rank = rank_,
             .v_begin_s = start, .v_end_s = end,
             .attrs = {.bytes = static_cast<std::int64_t>(payload.size()),
                       .peer = phys_dst, .tag = tag}});
    }

    Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.epoch = epoch_;
    msg.arrival_time_s = end;
    msg.payload = std::move(payload);
    transport_.deliver(phys_dst, std::move(msg));
    return end;
}

double Communicator::reserve_nic(double earliest_s, double duration_s) {
    double t = earliest_s;
    auto it = nic_busy_.begin();
    for (; it != nic_busy_.end(); ++it) {
        if (it->first >= t + duration_s) break;  // the gap before *it fits
        if (it->second > t) t = it->second;      // occupied — start after it
    }
    // `it` is the first interval starting at or after the placed transfer,
    // so inserting before it keeps nic_busy_ sorted and non-overlapping.
    nic_busy_.insert(it, {t, t + duration_s});
    nic_busy_until_s_ = std::max(nic_busy_until_s_, t + duration_s);
    return t;
}

std::optional<Communicator::AsyncMsg> Communicator::try_recv_async(int src, int tag) {
    std::optional<Message> m = transport_.try_receive(rank_, to_physical(src), tag);
    if (!m) return std::nullopt;
    stats_.messages_received += 1;
    stats_.bytes_received += m->payload.size();
    if (tracer_) {
        m_bytes_received_->add(m->payload.size());
        tracer_->record_detached(
            {.name = "recv_async", .category = "comm", .rank = rank_,
             .v_begin_s = m->arrival_time_s, .v_end_s = m->arrival_time_s,
             .attrs = {.bytes = static_cast<std::int64_t>(m->payload.size()),
                       .peer = m->source, .tag = tag}});
    }
    return AsyncMsg{std::move(m->payload), m->arrival_time_s};
}

}  // namespace gtopk::comm
