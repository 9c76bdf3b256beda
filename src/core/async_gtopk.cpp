#include "core/async_gtopk.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "sparse/wire.hpp"

namespace gtopk::core {

namespace {

collectives::Schedule make_async_gtopk_schedule(int world) {
    // Exactly the blocking implementation's composition: the tree merge to
    // rank 0 followed by the binomial broadcast, fused into one tag block.
    const std::array<collectives::Schedule, 2> parts = {
        collectives::gtopk_merge_schedule(world, collectives::kVariableBytes),
        collectives::broadcast_schedule(world, /*root=*/0,
                                        collectives::kVariableBytes)};
    return collectives::concat_schedules("gtopk.allreduce.async", parts);
}

}  // namespace

AsyncGtopkAllreduce::AsyncGtopkAllreduce(comm::Communicator& comm,
                                         sparse::SparseGradient local,
                                         std::size_t k,
                                         sparse::MergeScratch* scratch)
    : AsyncCollective(comm, make_async_gtopk_schedule(comm.size()),
                      "gtopk.allreduce.async"),
      acc_(std::move(local)),
      k_(k),
      scratch_(scratch ? scratch : &own_scratch_),
      metrics_(GtopkMetrics::resolve(comm.tracer())),
      merge_tag_count_(
          collectives::gtopk_merge_schedule(comm.size(),
                                            collectives::kVariableBytes)
              .tag_count) {}

const sparse::SparseGradient& AsyncGtopkAllreduce::result() const {
    if (!done()) {
        throw std::logic_error(
            "AsyncGtopkAllreduce: result() before completion");
    }
    return acc_;
}

void AsyncGtopkAllreduce::op_send(const collectives::CommOp& op, int tag) {
    if (is_broadcast_op(op)) {
        if (comm().rank() == 0 && wire_.empty()) {
            sparse::serialize_into(acc_, wire_);
        }
        send_async_copy(op, tag, wire_);
        return;
    }
    // Merge stage: ship this handle's running accumulator, serialized
    // straight into a pooled buffer (the blocking path's wire discipline).
    std::vector<std::byte> buf =
        comm().buffer_pool().acquire(sparse::wire_size_bytes(acc_.nnz()));
    sparse::serialize_into(acc_, buf);
    send_async(op, tag, std::move(buf));
}

void AsyncGtopkAllreduce::op_recv(const collectives::CommOp& op,
                                  std::vector<std::byte> payload) {
    if (is_broadcast_op(op)) {
        wire_ = std::move(payload);
        return;
    }
    const sparse::SparseGradientView v = sparse::deserialize_view(payload);
    sparse::topk_merge_into(acc_, v.dense_size, v.indices, v.values, k_,
                            *scratch_);
    if (op.phase == 1) metrics_.merged(acc_.nnz());
}

void AsyncGtopkAllreduce::on_complete() {
    if (comm().size() == 1) {
        acc_ = sparse::sparse_topk(acc_, k_);
    } else {
        // Everyone — including the root, for bit-exact parity with the
        // blocking path — materializes the broadcast wire as the result.
        const sparse::SparseGradientView v = sparse::deserialize_view(wire_);
        acc_.dense_size = v.dense_size;
        acc_.indices.assign(v.indices.begin(), v.indices.end());
        acc_.values.assign(v.values.begin(), v.values.end());
    }
    metrics_.invoked();
}

}  // namespace gtopk::core
