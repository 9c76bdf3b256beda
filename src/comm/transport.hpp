// Transport: the point-to-point fabric connecting P simulated workers.
//
// InProcTransport is the in-process implementation: one mailbox per rank
// inside a shared process. TcpTransport (tcp_transport.hpp) is the
// socket-backed one, one OS process per rank. FaultInjectingTransport
// (fault_transport.hpp) decorates any Transport with a seeded, declarative
// FaultPlan — drops, duplicates, reorders, delays, payload corruption, rank
// kills — so chaos tests exercise the exact interface production code runs
// on. RecordingTransport and ReliableTransport are decorators too.
//
// try_receive is the one receive every implementation provides, and the
// only one the runtime calls: an AsyncCollective handle's wait() pumps it
// (collectives/async.hpp). The base class polls it to serve receive,
// receive_for and receive_for_virtual for callers outside the runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/network_model.hpp"

namespace gtopk::obs {
class Tracer;
class Histogram;
}  // namespace gtopk::obs

namespace gtopk::comm {

class Transport {
public:
    virtual ~Transport() = default;

    virtual int world_size() const = 0;

    /// Deliver `msg` to `dst`'s mailbox. `msg.arrival_time_s` must already
    /// be stamped by the caller (the Communicator applies the NetworkModel).
    virtual void deliver(int dst, Message msg) = 0;

    /// Non-blocking matched receive on rank `rank`; nullopt when nothing
    /// matches. Throws MailboxClosed after shutdown.
    virtual std::optional<Message> try_receive(int rank, int source, int tag) = 0;

    /// Blocking matched receive: polls try_receive until a match arrives.
    virtual Message receive(int rank, int source, int tag);

    /// Matched receive with a HOST-time deadline: nullopt once `timeout_s`
    /// host seconds elapse without a match (a stalled receiver cannot be
    /// detected on the virtual clock — it only advances via message
    /// arrivals). timeout_s <= 0 waits forever, identical to receive().
    /// Throws MailboxClosed after shutdown. Polls try_receive.
    virtual std::optional<Message> receive_for(int rank, int source, int tag,
                                               double timeout_s);

    /// Matched receive with a VIRTUAL-time deadline: a match whose modeled
    /// arrival_time_s is <= `max_arrival_s` is returned; a later-arriving
    /// match is consumed and discarded with nullopt (deterministically — the
    /// outcome depends only on modeled arrival times, never on host speed).
    /// `host_grace_s` bounds the wait when no match ever materializes (a
    /// true drop); it changes detection latency, never the outcome. Polls
    /// try_receive.
    virtual std::optional<Message> receive_for_virtual(int rank, int source, int tag,
                                                       double max_arrival_s,
                                                       double host_grace_s);

    /// Abort: close all mailboxes, waking blocked receivers with an error.
    virtual void shutdown() = 0;

    /// Advance `rank`'s inbound epoch floor: queued and future messages
    /// with epoch < `epoch` are rejected deterministically. Called by
    /// Communicator::set_view when a membership regroup lands. Decorators
    /// purge their own stale state (hold slots, reassembly buffers) and
    /// forward. Base: no-op for transports without epoch support.
    virtual void begin_epoch(int rank, int epoch) {
        (void)rank;
        (void)epoch;
    }

    /// Liveness as far as the fabric knows: false once a fault plan has
    /// killed `rank`. The reliable layer consults this so it never
    /// "recovers" traffic from a dead host's buffers.
    virtual bool rank_alive(int rank) const {
        (void)rank;
        return true;
    }

    /// Progress marker: `rank` reached application step `step` (trainers
    /// call it at every iteration boundary). Lets the fault injector place
    /// scheduled kills at an exact iteration instead of after N sends.
    /// Base: no-op.
    virtual void on_progress(int rank, std::int64_t step) {
        (void)rank;
        (void)step;
    }

    /// Number of messages pending for `rank` whose tag is >= `min_tag`.
    /// Feeds the tag-wrap soundness check in Communicator::fresh_async_tags
    /// (wrapping is only legal when no async-band message is in flight).
    /// Decorators forward to their inner transport; the base returns 0,
    /// which degrades the wrap check to a no-op for transports that cannot
    /// inspect their queues.
    virtual std::size_t pending_with_tag_at_least(int rank, int min_tag) const {
        (void)rank;
        (void)min_tag;
        return 0;
    }

    /// Attach an observability tracer (nullptr detaches). Call before
    /// worker threads start. Base: no-op; implementations register their
    /// metrics (mailbox depth, fault-event counters).
    virtual void set_tracer(obs::Tracer*) {}

    /// True when every rank shares this process's address space, i.e. all
    /// per-rank state of a decorator stacked on top is visible to all
    /// ranks. ReliableTransport picks its ack plane off this bit: on a
    /// shared-memory fabric the receiver publishes its cumulative ack into
    /// the sender's edge state and pulls retransmits straight out of the
    /// sender's buffer; on a multi-process fabric (TCP) acks and
    /// gap-recovery pulls travel as real frames on the wire
    /// (kTagReliableAck / kTagReliablePull) and both endpoints run the same
    /// fsm::arq_* transitions cross-process. Decorators forward.
    virtual bool shared_memory_fabric() const { return true; }

    /// Drain the set of peers whose connection to `rank` was re-established
    /// since the last call (session-resume on a socket fabric). The
    /// reliable layer polls this from its pump and immediately runs an
    /// ack + pull exchange with each returned peer, so frames lost in
    /// flight across the disconnect retransmit from the ARQ buffer without
    /// waiting out a recovery backoff. Base: no reconnects ever (empty).
    /// Decorators forward.
    virtual std::vector<int> take_reconnected(int rank) {
        (void)rank;
        return {};
    }
};

class InProcTransport final : public Transport {
public:
    explicit InProcTransport(int world_size);

    int world_size() const override { return static_cast<int>(mailboxes_.size()); }
    void deliver(int dst, Message msg) override;
    std::optional<Message> try_receive(int rank, int source, int tag) override;
    void shutdown() override;
    void begin_epoch(int rank, int epoch) override;
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override;

    /// Direct mailbox access for decorators/tests (e.g. stale-rejection
    /// counters). `rank` must be in range.
    Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }

    /// Total messages delivered since construction (for tests/benches).
    std::uint64_t delivered_count() const;

    /// Attach a tracer whose metrics registry receives a "mailbox.depth"
    /// histogram sample (destination queue depth after enqueue) on every
    /// delivery.
    void set_tracer(obs::Tracer* tracer) override;

private:
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::atomic<std::uint64_t> delivered_{0};
    obs::Histogram* depth_histogram_ = nullptr;
};

}  // namespace gtopk::comm
