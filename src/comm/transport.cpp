#include "comm/transport.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"

namespace gtopk::comm {

Message Transport::receive(int rank, int source, int tag) {
    return std::move(*receive_for(rank, source, tag, 0.0));
}

std::optional<Message> Transport::receive_for(int rank, int source, int tag,
                                              double timeout_s) {
    const bool bounded = timeout_s > 0.0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(bounded ? timeout_s : 0.0));
    for (;;) {
        if (auto msg = try_receive(rank, source, tag)) return msg;
        if (bounded && std::chrono::steady_clock::now() >= deadline) return std::nullopt;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

std::optional<Message> Transport::receive_for_virtual(int rank, int source, int tag,
                                                      double max_arrival_s,
                                                      double host_grace_s) {
    // try_receive consumes, so a match past the virtual deadline is
    // discarded: a receive that gave up at virtual time D treats anything
    // after D as lost, and the outcome depends only on modeled arrivals.
    const auto grace_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(host_grace_s));
    for (;;) {
        if (auto msg = try_receive(rank, source, tag)) {
            if (msg->arrival_time_s <= max_arrival_s) return msg;
            return std::nullopt;
        }
        if (std::chrono::steady_clock::now() >= grace_deadline) return std::nullopt;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

InProcTransport::InProcTransport(int world_size) {
    if (world_size <= 0) throw std::invalid_argument("world_size must be positive");
    mailboxes_.reserve(static_cast<std::size_t>(world_size));
    for (int i = 0; i < world_size; ++i) {
        mailboxes_.push_back(std::make_unique<Mailbox>());
    }
}

void InProcTransport::deliver(int dst, Message msg) {
    if (dst < 0 || dst >= world_size()) throw std::out_of_range("deliver: bad rank");
    const std::size_t depth = mailboxes_[static_cast<std::size_t>(dst)]->push(std::move(msg));
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (depth_histogram_) depth_histogram_->record(depth);
}

void InProcTransport::set_tracer(obs::Tracer* tracer) {
    depth_histogram_ = tracer ? &tracer->metrics().histogram("mailbox.depth") : nullptr;
}

void InProcTransport::shutdown() {
    for (auto& mb : mailboxes_) mb->close();
}

std::optional<Message> InProcTransport::try_receive(int rank, int source, int tag) {
    if (rank < 0 || rank >= world_size()) throw std::out_of_range("try_receive: bad rank");
    return mailboxes_[static_cast<std::size_t>(rank)]->try_pop(source, tag);
}

void InProcTransport::begin_epoch(int rank, int epoch) {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("begin_epoch: bad rank");
    }
    mailboxes_[static_cast<std::size_t>(rank)]->set_min_epoch(epoch);
}

std::size_t InProcTransport::pending_with_tag_at_least(int rank, int min_tag) const {
    if (rank < 0 || rank >= world_size()) {
        throw std::out_of_range("pending_with_tag_at_least: bad rank");
    }
    return mailboxes_[static_cast<std::size_t>(rank)]->count_tag_at_least(min_tag);
}

std::uint64_t InProcTransport::delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
}

}  // namespace gtopk::comm
