// Per-worker inbound message queue with MPI-style (source, tag) matching.
//
// Producers are other worker threads; the consumer is the owning worker.
// Matching preserves per-(source, tag) FIFO order, which is the ordering
// guarantee MPI gives and the one the collectives rely on.
#pragma once

#include <chrono>
#include <condition_variable>
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

    /// Block until a message matching (source, tag) is available and remove
    /// it. Wildcards kAnySource / kAnyTag match anything.
    Message pop(int source, int tag);

    /// Non-blocking variant; returns nullopt when nothing matches.
    /// Throws MailboxClosed once the mailbox is closed, so pollers observe
    /// shutdown just like blocked pop() callers.
    std::optional<Message> try_pop(int source, int tag);

    /// Deadline variant of pop(): waits at most `timeout` (host time) for a
    /// match and returns nullopt on expiry. Throws MailboxClosed on
    /// shutdown, exactly like pop(). The Communicator's receive-timeout
    /// path turns the nullopt into a typed CommError.
    std::optional<Message> pop_for(int source, int tag,
                                   std::chrono::nanoseconds timeout);

    /// VIRTUAL-clock deadline variant: a matching message whose modeled
    /// arrival_time_s is <= `max_arrival_s` is returned; a matching message
    /// that arrives LATER than the virtual deadline is consumed and
    /// discarded (a receive that gave up at virtual time D treats anything
    /// after D as lost) and nullopt is returned immediately — a
    /// deterministic outcome, independent of host-machine speed. The
    /// `host_grace` bound only covers the case where no matching message
    /// ever materializes (a true drop); it converts an indefinite wait into
    /// nullopt without affecting WHICH outcome deterministic scenarios see.
    /// Throws MailboxClosed on shutdown.
    std::optional<Message> pop_for_virtual(int source, int tag, double max_arrival_s,
                                           std::chrono::nanoseconds host_grace);

    /// Raise the epoch floor: every queued message with epoch < `epoch` is
    /// purged now, and every future push below the floor is rejected on
    /// arrival. Monotonic (lowering is a no-op). This is the deterministic
    /// stale-message rejection the membership regroup relies on.
    void set_min_epoch(int epoch);
    int min_epoch() const;

    /// Messages rejected by the epoch floor since construction (purged at
    /// set_min_epoch plus dropped at push).
    std::size_t stale_rejected() const;

    /// Wake all waiters with a shutdown signal; subsequent pops throw.
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
    std::condition_variable cv_;
    std::deque<Message> queue_;
    bool closed_ = false;
    int min_epoch_ = 0;
    std::size_t stale_rejected_ = 0;
    std::size_t async_pending_ = 0;  // queued with tag >= kAsyncTagBase
};

/// Thrown by pop() when the mailbox is closed while waiting (cluster abort).
struct MailboxClosed : std::exception {
    const char* what() const noexcept override { return "mailbox closed"; }
};

}  // namespace gtopk::comm
