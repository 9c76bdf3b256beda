// Per-worker inbound message queue with MPI-style (source, tag) matching.
//
// Producers are other worker threads; the consumer is the owning worker,
// which polls try_pop (an AsyncCollective handle's wait() pumps it through
// the transport). Matching preserves per-(source, tag) FIFO order, which is
// the ordering guarantee MPI gives and the one the collectives rely on.
#pragma once

#include <deque>
#include <mutex>
#include <optional>

#include "comm/message.hpp"

namespace gtopk::comm {

class Mailbox {
public:
    /// Enqueue a message (called from the sender's thread). Returns the
    /// queue depth right after the enqueue (feeds the queue-depth metric).
    std::size_t push(Message msg);

    /// Remove and return the first message matching (source, tag); nullopt
    /// when nothing matches. Wildcards kAnySource / kAnyTag match anything.
    /// Throws MailboxClosed once the mailbox is closed, so pollers observe
    /// shutdown.
    std::optional<Message> try_pop(int source, int tag);

    /// Raise the epoch floor: every queued message with epoch < `epoch` is
    /// purged now, and every future push below the floor is rejected on
    /// arrival. Monotonic (lowering is a no-op). This is the deterministic
    /// stale-message rejection the membership regroup relies on.
    void set_min_epoch(int epoch);
    int min_epoch() const;

    /// Messages rejected by the epoch floor since construction (purged at
    /// set_min_epoch plus dropped at push).
    std::size_t stale_rejected() const;

    /// Shut down: every subsequent try_pop throws MailboxClosed.
    void close();

    std::size_t size() const;

    /// Number of queued messages whose tag is >= `min_tag`. Used by the
    /// tag-wrap check in Communicator::fresh_async_tags: wrapping the tag
    /// cursor is only sound when no async-band message is still in flight.
    ///
    /// O(1) at the two thresholds the hot paths ask about — 0 (total depth,
    /// polled every iteration by the telemetry plane) and kAsyncTagBase
    /// (the band base) — via a counter maintained on every
    /// enqueue/dequeue; any other threshold falls back to a scan.
    /// Message tags are non-negative by construction (tags.hpp bands; the
    /// TCP frame decoder rejects negative tags at the wire).
    std::size_t count_tag_at_least(int min_tag) const;

private:
    bool matches(const Message& m, int source, int tag) const {
        return (source == kAnySource || m.source == source) &&
               (tag == kAnyTag || m.tag == tag);
    }

    // Band-counter bookkeeping; call with mutex_ held around every queue_
    // mutation so the O(1) count_tag_at_least fast path stays exact.
    void note_insert(const Message& m);
    void note_erase(const Message& m);

    mutable std::mutex mutex_;
    std::deque<Message> queue_;
    bool closed_ = false;
    int min_epoch_ = 0;
    std::size_t stale_rejected_ = 0;
    std::size_t async_pending_ = 0;  // queued with tag >= kAsyncTagBase
};

/// Thrown by try_pop() once the mailbox is closed (cluster abort).
struct MailboxClosed : std::exception {
    const char* what() const noexcept override { return "mailbox closed"; }
};

}  // namespace gtopk::comm
