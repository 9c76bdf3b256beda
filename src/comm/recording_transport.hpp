// RecordingTransport: a pass-through decorator (sibling of
// FaultInjectingTransport) that captures every delivered message's
// (src, dst, tag, bytes) so a live threaded run can be diffed against the
// statically generated schedule — the runtime half of commcheck's
// conformance story (src/analysis/conformance.hpp).
//
// Recording happens in deliver(), i.e. on the SENDER's thread. The global
// sequence numbers therefore reflect one valid interleaving of the run,
// while each (src, dst) edge's subsequence is exactly the sender's program
// order — the deterministic object the conformance diff compares.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/transport.hpp"

namespace gtopk::comm {

/// One captured delivery.
struct RecordedMsg {
    int src = -1;
    int dst = -1;
    int tag = -1;
    std::int64_t bytes = 0;
    /// Global capture order (one valid interleaving; per-edge order is the
    /// sender's program order and is deterministic).
    std::uint64_t seq = 0;
};

class RecordingTransport final : public Transport {
public:
    /// Decorate an existing transport (takes ownership).
    explicit RecordingTransport(std::unique_ptr<Transport> inner);
    /// Convenience: fresh InProcTransport underneath.
    explicit RecordingTransport(int world_size);

    int world_size() const override { return inner_->world_size(); }
    void deliver(int dst, Message msg) override;
    std::optional<Message> try_receive(int rank, int source, int tag) override;
    void shutdown() override;
    void set_tracer(obs::Tracer* tracer) override;
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override;
    bool shared_memory_fabric() const override {
        return inner_->shared_memory_fabric();
    }
    void begin_epoch(int rank, int epoch) override {
        inner_->begin_epoch(rank, epoch);
    }
    bool rank_alive(int rank) const override { return inner_->rank_alive(rank); }
    void on_progress(int rank, std::int64_t step) override {
        inner_->on_progress(rank, step);
    }
    std::vector<int> take_reconnected(int rank) override {
        return inner_->take_reconnected(rank);
    }

    /// Snapshot of everything captured so far, in global seq order.
    std::vector<RecordedMsg> log() const;
    /// The (src -> dst) edge's subsequence, in send order.
    std::vector<RecordedMsg> edge_log(int src, int dst) const;
    std::uint64_t captured() const;
    void clear();

    Transport& inner() { return *inner_; }

private:
    std::unique_ptr<Transport> inner_;
    mutable std::mutex mutex_;
    std::vector<RecordedMsg> log_;
};

}  // namespace gtopk::comm
