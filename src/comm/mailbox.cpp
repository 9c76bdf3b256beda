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
    std::lock_guard<std::mutex> lock(mutex_);
    if (msg.epoch < min_epoch_) {
        // Stale-epoch traffic from a straggler: rejected at the door,
        // deterministically, so it can never steal a future match.
        ++stale_rejected_;
        return queue_.size();
    }
    note_insert(msg);
    queue_.push_back(std::move(msg));
    return queue_.size();
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
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
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
