#include "comm/recording_transport.hpp"

#include <stdexcept>

namespace gtopk::comm {

RecordingTransport::RecordingTransport(std::unique_ptr<Transport> inner)
    : inner_(std::move(inner)) {
    if (!inner_) throw std::invalid_argument("RecordingTransport: null inner");
}

RecordingTransport::RecordingTransport(int world_size)
    : RecordingTransport(std::make_unique<InProcTransport>(world_size)) {}

void RecordingTransport::deliver(int dst, Message msg) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RecordedMsg rec;
        rec.src = msg.source;
        rec.dst = dst;
        rec.tag = msg.tag;
        rec.bytes = static_cast<std::int64_t>(msg.payload.size());
        rec.seq = static_cast<std::uint64_t>(log_.size());
        log_.push_back(rec);
    }
    inner_->deliver(dst, std::move(msg));
}

std::optional<Message> RecordingTransport::try_receive(int rank, int source, int tag) {
    return inner_->try_receive(rank, source, tag);
}

void RecordingTransport::shutdown() { inner_->shutdown(); }

void RecordingTransport::set_tracer(obs::Tracer* tracer) { inner_->set_tracer(tracer); }

std::size_t RecordingTransport::pending_with_tag_at_least(int rank, int min_tag) const {
    return inner_->pending_with_tag_at_least(rank, min_tag);
}

std::vector<RecordedMsg> RecordingTransport::log() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
}

std::vector<RecordedMsg> RecordingTransport::edge_log(int src, int dst) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RecordedMsg> out;
    for (const RecordedMsg& m : log_) {
        if (m.src == src && m.dst == dst) out.push_back(m);
    }
    return out;
}

std::uint64_t RecordingTransport::captured() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::uint64_t>(log_.size());
}

void RecordingTransport::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    log_.clear();
}

}  // namespace gtopk::comm
