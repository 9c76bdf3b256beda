// ReliableTransport: reliable, exactly-once, per-edge-FIFO delivery over a
// lossy fabric — the recovery layer that turns FaultInjectingTransport's
// probabilistic drop/corrupt plans from typed aborts into masked noise.
//
// Mechanism (classic ARQ, adapted to the simulated cluster):
//   * Every non-control message is wrapped in an envelope carrying a
//     per-directed-edge sequence number, the original tag and epoch, and an
//     FNV-1a checksum, and travels on the reserved kTagReliableData tag.
//   * The sender keeps a pristine copy in a per-edge retransmit buffer
//     until the receiver's cumulative ack passes it.
//   * The receiver unwraps envelopes in strict sequence order into a local
//     per-rank mailbox: duplicates (seq already delivered) are discarded,
//     out-of-order arrivals wait in a reassembly buffer, and a checksum or
//     magic mismatch (fault-layer corruption) is treated as a loss.
//   * When a receive stalls on a sequence gap — the signature of a dropped
//     or corrupted message — the receiver requests a retransmit with
//     capped exponential backoff. With retries the delivery probability of
//     a p-loss channel tends to 1. Messages from a rank the fault plan has
//     killed are never recovered — a dead host's buffers die with it — so
//     rank kills still surface as timeouts and feed the membership layer,
//     while drop/corrupt plans are masked bit-identically (payload bytes
//     AND modeled arrival times are the originals, so training results
//     equal the fault-free run exactly).
//
// The ACK PLANE adapts to the fabric (Transport::shared_memory_fabric):
//   * Shared-memory fabric (in-process): the receiver publishes its
//     cumulative ack into the sender's edge state through a shared atomic,
//     and recovery pulls the gap head straight out of the sender's buffer.
//   * Wire fabric (TCP — ranks in separate processes): acks and recovery
//     travel as real frames. Each delivery (or duplicate, whose earlier ack
//     may have been lost) is acknowledged with a kTagReliableAck frame
//     carrying the cumulative ack; the sender folds it via fsm::arq_tx_ack
//     and GCs its retransmit buffer. A stalled receiver sends
//     kTagReliablePull frames carrying its next expected seq on the same
//     backoff schedule; the sender treats expected-1 as a cumulative ack
//     and re-emits every still-buffered envelope from that seq on, with the
//     ORIGINAL payload, epoch and arrival stamp — so recovery over the
//     wire is exactly as bit-identical as the in-process pull. Both
//     endpoints execute the same fsm::arq_* transitions either way.
//
// Every sequencing DECISION above (seq assignment, GC, dedup, parking,
// release, stale-epoch skip) is made by the pure transition functions in
// comm/reliable_fsm.hpp; this class owns payload bytes, mutexes and
// mailboxes and merely applies those decisions. The protocheck model
// checker (src/analysis/protocheck) drives the identical functions under an
// exhaustive adversarial network — one copy of the protocol logic, so the
// verified model cannot drift from the running code (DESIGN.md §16).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/reliable_fsm.hpp"
#include "comm/transport.hpp"

namespace gtopk::obs {
class Counter;
}  // namespace gtopk::obs

namespace gtopk::comm {

/// Reliable-layer configuration: retransmit backoff (host time).
struct ReliableConfig {
    double initial_backoff_s = 0.002;  // first retransmit request delay
    double max_backoff_s = 0.050;      // cap for the exponential doubling
    /// Wire mode: on shutdown, keep pumping until every sent envelope is
    /// cumulatively acked (or its receiver is dead), up to this budget. A
    /// rank that finishes training first may still hold the pristine copy
    /// of a frame the socket chaos swallowed — exiting immediately would
    /// strand the slower peer waiting on a retransmit that can never come.
    double shutdown_drain_s = 3.0;
};

/// Aggregate event counters (monotonic since construction).
struct ReliableCounts {
    std::uint64_t sent = 0;             // envelopes sent (first transmission)
    std::uint64_t retransmits = 0;      // gap heads recovered from buffers
    std::uint64_t corrupt_dropped = 0;  // envelopes failing checksum/magic
    std::uint64_t dup_dropped = 0;      // envelopes with already-seen seq
    std::uint64_t stale_skipped = 0;    // old-epoch messages skipped on recovery
};

class ReliableTransport final : public Transport {
public:
    /// Decorate an existing transport (takes ownership). Usually the inner
    /// transport is a FaultInjectingTransport or a TcpTransport; stacking
    /// over a plain InProcTransport is a pure (if pointless) passthrough.
    /// The ack plane is chosen from inner->shared_memory_fabric(): shared
    /// counters + buffer pulls in-process, ack/pull frames on the wire.
    explicit ReliableTransport(std::unique_ptr<Transport> inner,
                               ReliableConfig config = {});
    /// Runs shutdown() (with its wire-mode ack drain) if nobody did.
    ~ReliableTransport() override;

    int world_size() const override { return inner_->world_size(); }
    void deliver(int dst, Message msg) override;
    std::optional<Message> try_receive(int rank, int source, int tag) override;
    void shutdown() override;
    void begin_epoch(int rank, int epoch) override;
    bool rank_alive(int rank) const override { return inner_->rank_alive(rank); }
    void on_progress(int rank, std::int64_t step) override {
        inner_->on_progress(rank, step);
    }
    void set_tracer(obs::Tracer* tracer) override;
    bool shared_memory_fabric() const override {
        return inner_->shared_memory_fabric();
    }
    /// Delivered (unwrapped) pending messages plus reassembly-parked ones.
    /// Envelopes still inside the inner fabric travel on kTagReliableData
    /// (< kAsyncTagBase) and are invisible here; the retransmit protocol
    /// guarantees they re-materialize, so the count is a lower bound.
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override;

    /// Drain incoming envelopes for `rank` and immediately pull every
    /// recoverable gap head from live senders' buffers, bypassing the
    /// backoff gate. Returns the number of messages recovered. Normal
    /// operation never needs this — pump() recovers on its own schedule;
    /// the protocheck replay bridge uses it to fire recovery exactly where
    /// a counterexample trace says it fires (deterministic replay requires
    /// an effectively-infinite configured backoff plus explicit calls).
    std::size_t recover_now(int rank);

    ReliableCounts counts() const;
    Transport& inner() { return *inner_; }

private:
    /// Sender-side per-edge state: the pure FSM state plus the payload
    /// buffer it indexes. `state.next_seq` is only advanced by the sending
    /// rank's thread; the buffer is shared with the receiving rank's
    /// recovery path, hence the mutex.
    struct EdgeTx {
        std::mutex mutex;
        fsm::ArqTxState state;
        std::deque<Message> buffer;  // pristine copies, [base_seq, +buffered)
        /// Cumulative ack, receiver-written — the in-process ack channel.
        std::atomic<std::uint64_t> acked{0};
    };

    /// Receiver-side per-edge state; touched only by the receiving rank's
    /// thread. `parked` keys mirror state.parked exactly.
    struct EdgeRx {
        fsm::ArqRxState state;
        std::map<std::uint64_t, Message> parked;  // out-of-order payloads
    };

    /// Per-rank retransmit backoff state (receiver thread only).
    struct Backoff {
        double delay_s = 0.0;  // 0 = reset to initial on next arm
        std::chrono::steady_clock::time_point next_attempt{};
        bool armed = false;
    };

    std::size_t edge_index(int src, int dst) const {
        return static_cast<std::size_t>(src) *
                   static_cast<std::size_t>(world_size()) +
               static_cast<std::size_t>(dst);
    }
    EdgeTx& tx(int src, int dst) { return *tx_[edge_index(src, dst)]; }
    EdgeRx& rx(int src, int dst) { return rx_[edge_index(src, dst)]; }

    /// Pop `n` leading entries of the edge's parked payload map (the
    /// contiguous run the FSM just released) into `rank`'s mailbox.
    void release_parked(int rank, EdgeRx& r, std::uint64_t n);
    /// Drain every envelope the inner fabric holds for `rank` (wire mode:
    /// also ack/pull control frames, answering pulls with retransmits).
    void process_incoming(int rank);
    /// Pull gap-head messages for `rank`: straight from live senders'
    /// buffers in-process, via kTagReliablePull frames on the wire.
    /// Returns the number of messages recovered (wire mode: always 0 —
    /// recovery lands asynchronously through process_incoming).
    std::size_t recover(int rank);
    /// process_incoming + backoff-gated recover; one poll step.
    void pump(int rank);
    void count_event(std::atomic<std::uint64_t>& cell, obs::Counter* metric);

    // --- wire-mode helpers (non-shared-memory inner fabric only) ---
    /// Best-effort control frame (ack/pull) from `rank` to `dst`: stamped
    /// with rank's current epoch floor so the peer's inbound floor admits
    /// it; a dead peer is skipped, a dying one swallowed (CommError) — the
    /// pump must never throw for control traffic.
    void send_control(int rank, int dst, int tag, std::uint64_t value);
    /// Answer a kTagReliablePull from `peer`: fold expected-1 as an ack,
    /// then re-emit every still-buffered envelope with seq >= expected.
    void answer_pull(int rank, int peer, std::uint64_t expected, int pull_epoch);

    std::unique_ptr<Transport> inner_;
    ReliableConfig config_;
    /// False inner shared_memory_fabric(): acks/pulls travel as frames.
    bool wire_ = false;
    std::vector<std::unique_ptr<EdgeTx>> tx_;
    std::vector<EdgeRx> rx_;
    std::vector<std::unique_ptr<Mailbox>> delivered_;
    std::vector<Backoff> backoff_;
    /// Per-rank epoch floor (last begin_epoch), the stamp on outgoing wire
    /// control frames. Element `r` is touched only by rank r's thread.
    std::vector<int> floors_;

    std::atomic<bool> shut_{false};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> retransmits_{0};
    std::atomic<std::uint64_t> corrupt_dropped_{0};
    std::atomic<std::uint64_t> dup_dropped_{0};
    std::atomic<std::uint64_t> stale_skipped_{0};

    obs::Counter* m_retransmits_ = nullptr;
    obs::Counter* m_corrupt_dropped_ = nullptr;
    obs::Counter* m_dup_dropped_ = nullptr;
    obs::Counter* m_stale_skipped_ = nullptr;
};

}  // namespace gtopk::comm
