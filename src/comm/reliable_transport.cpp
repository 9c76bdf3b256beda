#include "comm/reliable_transport.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "comm/comm_error.hpp"
#include "comm/tags.hpp"
#include "comm/wire_codec.hpp"
#include "obs/trace.hpp"

namespace gtopk::comm {

namespace {

// Envelope header, prepended to the user payload on the wire:
//   [magic u64][seq u64][orig_tag i64][orig_epoch i64][checksum u64]
// The checksum covers seq, orig_tag, orig_epoch and the user payload, so a
// fault-layer bit flip anywhere in the envelope is detected: a flip in
// `magic` or `checksum` fails the respective check directly, a flip in any
// other field or the payload fails the checksum. Either way the envelope is
// discarded and the sequence gap drives a retransmit.
//
// The original epoch rides INSIDE the envelope (not only on the carrier
// Message) so a wire retransmit can bump its carrier epoch past the
// receiving fabric's inbound floor after a regroup: the frame still
// arrives, the rx FSM still advances past the seq, and the unwrapped
// message — restored to its original epoch — is then rejected by the
// delivered-mailbox floor, which is exactly the stale-skip semantic of the
// in-process recovery path.
constexpr std::uint64_t kMagic = 0x6774306b52454cULL;  // "gt0kREL"
constexpr std::size_t kHeaderBytes = 40;

// Wire control frames (kTagReliableAck / kTagReliablePull):
//   [magic u64][value u64][checksum u64]
// A corrupted control frame must never reach the FSMs: a garbage
// cumulative ack could GC payloads nobody received. Malformed frames are
// dropped; the protocol re-sends acks/pulls anyway.
constexpr std::uint64_t kCtlMagic = 0x6774306b41524bULL;  // "gt0kARK"
constexpr std::size_t kCtlBytes = 24;

std::uint64_t fnv1a(const std::byte* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<std::uint64_t>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t envelope_checksum(std::uint64_t seq, std::int64_t orig_tag,
                                std::int64_t orig_epoch,
                                const std::vector<std::byte>& payload) {
    std::byte key[24];
    std::memcpy(key, &seq, 8);
    std::memcpy(key + 8, &orig_tag, 8);
    std::memcpy(key + 16, &orig_epoch, 8);
    return fnv1a(payload.data(), payload.size(), fnv1a(key, sizeof key));
}

std::optional<std::uint64_t> decode_control(const std::vector<std::byte>& p) {
    if (p.size() != kCtlBytes || get_u64(p.data()) != kCtlMagic) {
        return std::nullopt;
    }
    const std::uint64_t value = get_u64(p.data() + 8);
    std::byte key[8];
    std::memcpy(key, &value, 8);
    if (fnv1a(key, sizeof key) != get_u64(p.data() + 16)) return std::nullopt;
    return value;
}

std::chrono::steady_clock::duration host_dur(double seconds) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

}  // namespace

ReliableTransport::ReliableTransport(std::unique_ptr<Transport> inner,
                                     ReliableConfig config)
    : inner_(std::move(inner)), config_(config) {
    if (!inner_) throw std::invalid_argument("ReliableTransport: null inner");
    wire_ = !inner_->shared_memory_fabric();
    const std::size_t world = static_cast<std::size_t>(inner_->world_size());
    tx_.reserve(world * world);
    for (std::size_t i = 0; i < world * world; ++i) {
        tx_.push_back(std::make_unique<EdgeTx>());
    }
    rx_.resize(world * world);
    delivered_.reserve(world);
    for (std::size_t i = 0; i < world; ++i) {
        delivered_.push_back(std::make_unique<Mailbox>());
    }
    backoff_.resize(world);
    floors_.assign(world, 0);
}

ReliableTransport::~ReliableTransport() {
    try {
        shutdown();
    } catch (...) {
        // Destructors must not throw; the inner fabric's own teardown runs
        // regardless via its destructor.
    }
}

void ReliableTransport::count_event(std::atomic<std::uint64_t>& cell,
                                    obs::Counter* metric) {
    cell.fetch_add(1, std::memory_order_relaxed);
    if (metric) metric->add(1);
}

namespace {

/// Wrap `msg` as a seq-numbered envelope. `carrier_epoch` is the epoch on
/// the CARRIER message (what inbound epoch floors judge); the original
/// epoch is preserved inside the header. First transmissions use
/// carrier_epoch == msg.epoch; wire retransmits may bump it.
Message make_envelope(const Message& msg, std::uint64_t seq, int carrier_epoch) {
    Message envelope;
    envelope.source = msg.source;
    envelope.tag = kTagReliableData;
    envelope.epoch = carrier_epoch;
    envelope.arrival_time_s = msg.arrival_time_s;
    const std::int64_t orig_tag = msg.tag;
    const std::int64_t orig_epoch = msg.epoch;
    envelope.payload.resize(kHeaderBytes + msg.payload.size());
    put_u64(envelope.payload.data(), kMagic);
    put_u64(envelope.payload.data() + 8, seq);
    put_u64(envelope.payload.data() + 16, static_cast<std::uint64_t>(orig_tag));
    put_u64(envelope.payload.data() + 24, static_cast<std::uint64_t>(orig_epoch));
    put_u64(envelope.payload.data() + 32,
            envelope_checksum(seq, orig_tag, orig_epoch, msg.payload));
    std::memcpy(envelope.payload.data() + kHeaderBytes, msg.payload.data(),
                msg.payload.size());
    return envelope;
}

}  // namespace

void ReliableTransport::deliver(int dst, Message msg) {
    if (dst < 0 || dst >= world_size()) throw std::out_of_range("deliver: bad rank");
    EdgeTx& e = tx(msg.source, dst);

    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(e.mutex);
        const fsm::TxSendDecision d = fsm::arq_tx_send(
            e.state, e.acked.load(std::memory_order_acquire),
            inner_->rank_alive(dst));
        for (std::uint64_t i = 0; i < d.gc; ++i) e.buffer.pop_front();
        if (d.buffer) {
            e.buffer.push_back(msg);  // pristine copy survives the lossy fabric
        } else if (d.clear > 0) {
            e.buffer.clear();
        }
        seq = d.seq;
    }

    Message envelope = make_envelope(msg, seq, msg.epoch);
    sent_.fetch_add(1, std::memory_order_relaxed);
    inner_->deliver(dst, std::move(envelope));
}

void ReliableTransport::release_parked(int rank, EdgeRx& r, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
        delivered_[static_cast<std::size_t>(rank)]->push(
            std::move(r.parked.begin()->second));
        r.parked.erase(r.parked.begin());
    }
}

void ReliableTransport::process_incoming(int rank) {
    // Wire mode: cumulative acks owed per source after the intake drain.
    // Coalesced (latest value wins) so a burst costs one ack frame per edge.
    std::map<int, std::uint64_t> owed_acks;
    // One pass over the inner fabric in arrival order: every try_receive
    // miss may read the sockets, so the intake takes data, acks and pulls
    // together rather than one pass per tag.
    for (;;) {
        auto in = inner_->try_receive(rank, kAnySource, kAnyTag);
        if (!in) break;
        if (in->tag == kTagReliableAck || in->tag == kTagReliablePull) {
            const std::optional<std::uint64_t> value = decode_control(in->payload);
            if (!value) {
                count_event(corrupt_dropped_, m_corrupt_dropped_);
                continue;
            }
            if (in->tag == kTagReliableAck) {
                // Sender half of the wire ack plane: fold a remote
                // cumulative ack into this rank's tx edge and GC the acked
                // buffer prefix.
                EdgeTx& e = tx(rank, in->source);
                std::lock_guard<std::mutex> lock(e.mutex);
                const std::uint64_t gc = fsm::arq_tx_ack(e.state, *value);
                for (std::uint64_t i = 0; i < gc; ++i) e.buffer.pop_front();
            } else {
                // Gap-recovery pull: the remote receiver names its next
                // expected seq; everything still buffered from there on
                // retransmits.
                answer_pull(rank, in->source, *value, in->epoch);
            }
            continue;
        }
        Message& env = *in;
        if (env.tag != kTagReliableData || env.payload.size() < kHeaderBytes ||
            get_u64(env.payload.data()) != kMagic) {
            count_event(corrupt_dropped_, m_corrupt_dropped_);
            continue;
        }
        const std::uint64_t seq = get_u64(env.payload.data() + 8);
        const std::int64_t orig_tag =
            static_cast<std::int64_t>(get_u64(env.payload.data() + 16));
        const std::int64_t orig_epoch =
            static_cast<std::int64_t>(get_u64(env.payload.data() + 24));
        const std::uint64_t checksum = get_u64(env.payload.data() + 32);

        Message orig;
        orig.source = env.source;
        orig.tag = static_cast<int>(orig_tag);
        orig.epoch = static_cast<int>(orig_epoch);
        orig.arrival_time_s = env.arrival_time_s;
        orig.payload.assign(env.payload.begin() +
                                static_cast<std::ptrdiff_t>(kHeaderBytes),
                            env.payload.end());
        const bool checksum_ok =
            envelope_checksum(seq, orig_tag, orig_epoch, orig.payload) == checksum;

        const int src = orig.source;
        EdgeRx& r = rx(src, rank);
        const fsm::RxDecision d = fsm::arq_rx_envelope(r.state, seq, checksum_ok);
        switch (d.action) {
            case fsm::RxAction::kDropCorrupt:
                // Corruption == loss; the seq gap drives a retransmit.
                count_event(corrupt_dropped_, m_corrupt_dropped_);
                break;
            case fsm::RxAction::kDropDuplicate:
                count_event(dup_dropped_, m_dup_dropped_);
                // A duplicate usually means the earlier ack frame was lost:
                // re-publish the cumulative ack so the sender can GC.
                if (wire_) owed_acks[src] = d.cum_ack;
                break;
            case fsm::RxAction::kPark:
                r.parked.emplace(seq, std::move(orig));
                break;
            case fsm::RxAction::kDeliver:
                // The delivered-mailbox epoch floor re-judges the ORIGINAL
                // epoch here: a stale retransmit advances the seq space but
                // its payload is discarded (wire stale-skip).
                delivered_[static_cast<std::size_t>(rank)]->push(std::move(orig));
                release_parked(rank, r, d.release);
                if (wire_) {
                    owed_acks[src] = d.cum_ack;
                } else {
                    tx(src, rank).acked.store(d.cum_ack, std::memory_order_release);
                }
                backoff_[static_cast<std::size_t>(rank)].armed = false;  // progress
                break;
        }
    }
    for (const auto& [src, cum] : owed_acks) {
        send_control(rank, src, kTagReliableAck, cum);
    }
}

void ReliableTransport::send_control(int rank, int dst, int tag,
                                     std::uint64_t value) {
    if (dst < 0 || dst >= world_size() || dst == rank) return;
    if (!inner_->rank_alive(dst)) return;
    Message m;
    m.source = rank;
    m.tag = tag;
    m.epoch = floors_[static_cast<std::size_t>(rank)];
    m.arrival_time_s = 0.0;
    m.payload.resize(kCtlBytes);
    put_u64(m.payload.data(), kCtlMagic);
    put_u64(m.payload.data() + 8, value);
    std::byte key[8];
    std::memcpy(key, &value, 8);
    put_u64(m.payload.data() + 16, fnv1a(key, sizeof key));
    try {
        inner_->deliver(dst, std::move(m));
    } catch (const CommError&) {
        // The peer died between the liveness check and the send; its death
        // is the control plane's business, not the ack plane's.
    }
}

void ReliableTransport::answer_pull(int rank, int peer, std::uint64_t expected,
                                    int pull_epoch) {
    if (peer < 0 || peer >= world_size() || peer == rank) return;
    EdgeTx& e = tx(rank, peer);
    std::vector<std::pair<std::uint64_t, Message>> resend;
    {
        std::lock_guard<std::mutex> lock(e.mutex);
        if (expected > 0) {
            // expected-1 is an implicit cumulative ack: everything below
            // the gap head has been delivered or skipped.
            const std::uint64_t gc = fsm::arq_tx_ack(e.state, expected - 1);
            for (std::uint64_t i = 0; i < gc; ++i) e.buffer.pop_front();
        }
        for (std::uint64_t seq = e.state.base_seq;
             seq < e.state.base_seq + e.state.buffered; ++seq) {
            if (seq < expected) continue;
            resend.emplace_back(seq,
                                e.buffer[static_cast<std::size_t>(
                                    seq - e.state.base_seq)]);
        }
    }
    if (resend.empty()) return;
    if (!inner_->rank_alive(peer)) return;
    for (auto& [seq, msg] : resend) {
        // Original seq, tag, epoch, payload and arrival stamp — recovery is
        // bit-identical. Only the CARRIER epoch is bumped to the puller's
        // floor so the frame passes its inbound epoch filter; staleness of
        // the payload itself is re-judged against the inner header on
        // delivery.
        Message envelope =
            make_envelope(msg, seq, std::max(msg.epoch, pull_epoch));
        try {
            inner_->deliver(peer, std::move(envelope));
        } catch (const CommError&) {
            return;  // peer died mid-answer; the pull will not repeat to it
        }
        count_event(retransmits_, m_retransmits_);
    }
}

std::size_t ReliableTransport::recover(int rank) {
    if (wire_) {
        // The remote sender's buffer is not addressable: name the gap head
        // on the wire instead. The pull doubles as a cumulative ack of
        // expected-1, so it is harmless (and GC-useful) when nothing is
        // actually owed; recovered payloads land asynchronously through
        // process_incoming.
        for (int src = 0; src < world_size(); ++src) {
            if (src == rank) continue;
            if (!inner_->rank_alive(src)) continue;
            send_control(rank, src, kTagReliablePull,
                         rx(src, rank).state.expected);
        }
        return 0;
    }
    std::size_t recovered = 0;
    const int min_epoch = delivered_[static_cast<std::size_t>(rank)]->min_epoch();
    for (int src = 0; src < world_size(); ++src) {
        if (src == rank) continue;
        // A dead host's buffers die with it: never resurrect its traffic,
        // so a rank kill still surfaces as a receive timeout upstream.
        if (!inner_->rank_alive(src)) continue;
        EdgeRx& r = rx(src, rank);
        for (;;) {
            Message head;
            {
                EdgeTx& e = tx(src, rank);
                std::lock_guard<std::mutex> lock(e.mutex);
                const std::optional<std::uint64_t> idx =
                    fsm::arq_tx_buffer_index(e.state, r.state.expected);
                if (!idx) break;  // gap head GCed, cleared, or not yet sent
                head = e.buffer[static_cast<std::size_t>(*idx)];
            }
            const bool stale = head.epoch < min_epoch;
            const fsm::RxRecoverDecision d = fsm::arq_rx_recover(r.state, stale);
            if (d.action == fsm::RecoverAction::kSkipStale) {
                // Stale-epoch gap across a regroup: advance past it without
                // delivering, or the gap would wedge the edge forever.
                count_event(stale_skipped_, m_stale_skipped_);
            } else {
                delivered_[static_cast<std::size_t>(rank)]->push(std::move(head));
                count_event(retransmits_, m_retransmits_);
                ++recovered;
            }
            // Either outcome can unblock a parked suffix (and the mailbox
            // floor re-filters anything stale among the released payloads).
            release_parked(rank, r, d.release);
            tx(src, rank).acked.store(d.cum_ack, std::memory_order_release);
        }
    }
    if (recovered > 0) backoff_[static_cast<std::size_t>(rank)].armed = false;
    return recovered;
}

std::size_t ReliableTransport::recover_now(int rank) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("recover_now: bad rank");
    }
    process_incoming(rank);
    return recover(rank);
}

void ReliableTransport::pump(int rank) {
    if (wire_) {
        // Session-resume phase 2: for every peer whose socket just came
        // back, exchange next-expected-seq immediately — the ack lets the
        // peer GC, the pull retransmits whatever the disconnect swallowed —
        // instead of waiting out a recovery backoff.
        for (const int peer : inner_->take_reconnected(rank)) {
            if (peer < 0 || peer >= world_size() || peer == rank) continue;
            EdgeRx& r = rx(peer, rank);
            send_control(rank, peer, kTagReliableAck, r.state.expected - 1);
            send_control(rank, peer, kTagReliablePull, r.state.expected);
        }
    }
    process_incoming(rank);
    Backoff& b = backoff_[static_cast<std::size_t>(rank)];
    const auto now = std::chrono::steady_clock::now();
    if (!b.armed) {
        b.delay_s = config_.initial_backoff_s;
        b.next_attempt = now + host_dur(b.delay_s);
        b.armed = true;
        return;
    }
    if (now < b.next_attempt) return;
    if (recover(rank) > 0) {
        b.armed = false;  // progress: restart from the initial delay
    } else {
        b.delay_s = std::min(b.delay_s * 2.0, config_.max_backoff_s);
        b.next_attempt = now + host_dur(b.delay_s);
    }
}

std::optional<Message> ReliableTransport::try_receive(int rank, int source, int tag) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("try_receive: bad rank");
    }
    pump(rank);
    return delivered_[static_cast<std::size_t>(rank)]->try_pop(source, tag);
}

void ReliableTransport::shutdown() {
    if (shut_.exchange(true)) return;
    if (wire_) {
        // Linger until every sent envelope is acked or its receiver is
        // dead: peers still training may yet pull a frame the socket chaos
        // swallowed, and only this process holds the pristine copy. The
        // pump answers those pulls (and replays across session resumes);
        // the budget bounds the wait when a peer never acks.
        const int world = world_size();
        const auto deadline = std::chrono::steady_clock::now() +
                              host_dur(config_.shutdown_drain_s);
        for (;;) {
            bool outstanding = false;
            for (int src = 0; src < world; ++src) {
                bool pump_src = false;
                for (int dst = 0; dst < world; ++dst) {
                    if (dst == src) continue;
                    EdgeTx& t = tx(src, dst);
                    std::lock_guard<std::mutex> lock(t.mutex);
                    if (t.state.acked < t.state.next_seq &&
                        inner_->rank_alive(dst)) {
                        pump_src = true;
                        break;
                    }
                }
                if (!pump_src) continue;
                outstanding = true;
                try {
                    pump(src);
                } catch (...) {
                    // Inner fabric dying under us ends the drain's usefulness.
                    outstanding = false;
                    break;
                }
            }
            if (!outstanding || std::chrono::steady_clock::now() >= deadline) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
    for (auto& mb : delivered_) mb->close();
    inner_->shutdown();
}

void ReliableTransport::begin_epoch(int rank, int epoch) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("begin_epoch: bad rank");
    }
    auto& floor = floors_[static_cast<std::size_t>(rank)];
    if (epoch > floor) floor = epoch;
    delivered_[static_cast<std::size_t>(rank)]->set_min_epoch(epoch);
    // Stale parked envelopes would be rejected by the mailbox floor anyway
    // when their gap resolves; dropping them now keeps the pending count
    // (tag-wrap check) honest. Their seq slots become gaps that
    // recover() skips via the stale-epoch path.
    for (int src = 0; src < world_size(); ++src) {
        EdgeRx& r = rx(src, rank);
        for (auto it = r.parked.begin(); it != r.parked.end();) {
            if (it->second.epoch < epoch) {
                fsm::arq_rx_unpark(r.state, it->first);
                it = r.parked.erase(it);
                count_event(stale_skipped_, m_stale_skipped_);
            } else {
                ++it;
            }
        }
    }
    inner_->begin_epoch(rank, epoch);
}

std::size_t ReliableTransport::pending_with_tag_at_least(int rank, int min_tag) const {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("pending_with_tag_at_least: bad rank");
    }
    std::size_t n =
        delivered_[static_cast<std::size_t>(rank)]->count_tag_at_least(min_tag);
    for (int src = 0; src < world_size(); ++src) {
        for (const auto& [seq, msg] : rx_[edge_index(src, rank)].parked) {
            if (msg.tag >= min_tag) ++n;
        }
    }
    return n + inner_->pending_with_tag_at_least(rank, min_tag);
}

void ReliableTransport::set_tracer(obs::Tracer* tracer) {
    if (tracer) {
        auto& metrics = tracer->metrics();
        m_retransmits_ = &metrics.counter("reliable.retransmits");
        m_corrupt_dropped_ = &metrics.counter("reliable.corrupt_dropped");
        m_dup_dropped_ = &metrics.counter("reliable.dup_dropped");
        m_stale_skipped_ = &metrics.counter("reliable.stale_skipped");
    } else {
        m_retransmits_ = nullptr;
        m_corrupt_dropped_ = nullptr;
        m_dup_dropped_ = nullptr;
        m_stale_skipped_ = nullptr;
    }
    inner_->set_tracer(tracer);
}

ReliableCounts ReliableTransport::counts() const {
    ReliableCounts c;
    c.sent = sent_.load(std::memory_order_relaxed);
    c.retransmits = retransmits_.load(std::memory_order_relaxed);
    c.corrupt_dropped = corrupt_dropped_.load(std::memory_order_relaxed);
    c.dup_dropped = dup_dropped_.load(std::memory_order_relaxed);
    c.stale_skipped = stale_skipped_.load(std::memory_order_relaxed);
    return c;
}

}  // namespace gtopk::comm
