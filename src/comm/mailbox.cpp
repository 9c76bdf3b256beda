#include "comm/mailbox.hpp"

#include "comm/tags.hpp"

namespace gtopk::comm {

void Mailbox::note_insert(const Message& m) {
    if (m.tag >= kAsyncTagBase) ++async_pending_;
}

void Mailbox::note_erase(const Message& m) {
    if (m.tag >= kAsyncTagBase) --async_pending_;
}

std::size_t Mailbox::push(Message msg) {
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (msg.epoch < min_epoch_) {
            // Stale-epoch traffic from a straggler: rejected at the door,
            // deterministically, so it can never steal a future match.
            ++stale_rejected_;
            return queue_.size();
        }
        note_insert(msg);
        queue_.push_back(std::move(msg));
        depth = queue_.size();
    }
    cv_.notify_all();
    return depth;
}

Message Mailbox::pop(int source, int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (matches(*it, source, tag)) {
                Message msg = std::move(*it);
                note_erase(msg);
                queue_.erase(it);
                return msg;
            }
        }
        if (closed_) throw MailboxClosed{};
        cv_.wait(lock);
    }
}

std::optional<Message> Mailbox::pop_for(int source, int tag,
                                        std::chrono::nanoseconds timeout) {
    // The absolute deadline is computed ONCE, before the wait loop: every
    // spurious or non-matching wakeup re-enters cv_.wait_until with the
    // same time point, so repeated wakeups can never extend the effective
    // timeout (scale_test pins this property under a notification storm).
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (matches(*it, source, tag)) {
                Message msg = std::move(*it);
                note_erase(msg);
                queue_.erase(it);
                return msg;
            }
        }
        if (closed_) throw MailboxClosed{};
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            // One final scan: a push may have raced the timeout.
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (matches(*it, source, tag)) {
                    Message msg = std::move(*it);
                    note_erase(msg);
                    queue_.erase(it);
                    return msg;
                }
            }
            if (closed_) throw MailboxClosed{};
            return std::nullopt;
        }
    }
}

std::optional<Message> Mailbox::pop_for_virtual(int source, int tag,
                                                double max_arrival_s,
                                                std::chrono::nanoseconds host_grace) {
    const auto grace_deadline = std::chrono::steady_clock::now() + host_grace;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (!matches(*it, source, tag)) continue;
            note_erase(*it);
            if (it->arrival_time_s <= max_arrival_s) {
                Message msg = std::move(*it);
                queue_.erase(it);
                return msg;
            }
            // Matched, but past the virtual deadline: the receive gave up
            // at virtual time max_arrival_s, so this message is stale by
            // definition. Consume and discard it — the timeout outcome is
            // then a pure function of modeled arrival times.
            queue_.erase(it);
            return std::nullopt;
        }
        if (closed_) throw MailboxClosed{};
        if (cv_.wait_until(lock, grace_deadline) == std::cv_status::timeout) {
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (!matches(*it, source, tag)) continue;
                const bool in_time = it->arrival_time_s <= max_arrival_s;
                std::optional<Message> out;
                note_erase(*it);
                if (in_time) out = std::move(*it);
                queue_.erase(it);
                return out;
            }
            if (closed_) throw MailboxClosed{};
            return std::nullopt;
        }
    }
}

std::optional<Message> Mailbox::try_pop(int source, int tag) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw MailboxClosed{};
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (matches(*it, source, tag)) {
            Message msg = std::move(*it);
            note_erase(msg);
            queue_.erase(it);
            return msg;
        }
    }
    return std::nullopt;
}

void Mailbox::close() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::size_t Mailbox::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void Mailbox::set_min_epoch(int epoch) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch <= min_epoch_) return;
    min_epoch_ = epoch;
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->epoch < min_epoch_) {
            note_erase(*it);
            it = queue_.erase(it);
            ++stale_rejected_;
        } else {
            ++it;
        }
    }
}

int Mailbox::min_epoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return min_epoch_;
}

std::size_t Mailbox::stale_rejected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stale_rejected_;
}

std::size_t Mailbox::count_tag_at_least(int min_tag) const {
    std::lock_guard<std::mutex> lock(mutex_);
    // O(1) fast paths for the thresholds the hot loops use: total depth
    // (telemetry's per-iteration mailbox_depth) and the async band base.
    // At P=256 these were an O(queue) scan per iteration per rank.
    if (min_tag <= 0) return queue_.size();
    if (min_tag == kAsyncTagBase) return async_pending_;
    std::size_t n = 0;
    for (const Message& m : queue_) {
        if (m.tag >= min_tag) ++n;
    }
    return n;
}

}  // namespace gtopk::comm
