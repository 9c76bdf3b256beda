#include "core/async_gtopk.hpp"

#include <stdexcept>
#include <utility>

#include "comm/buffer_pool.hpp"
#include "obs/trace.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/wire.hpp"

namespace gtopk::core {

// The fused op program (collectives::gtopk_allreduce_schedule): the tree
// merge to rank 0 (phase 0 folds ranks beyond the largest power-of-two base
// into it; phase 1 is the distance-doubling tree of Fig. 4 — at round r,
// ranks at stride 2^r pair up, the odd-position one ships its [V, I] to its
// even peer, which merges with ⊤) followed by line 19's broadcast of rank
// 0's result, in one tag block.
AsyncGtopkAllreduce::AsyncGtopkAllreduce(comm::Communicator& comm,
                                         sparse::SparseGradient local,
                                         std::size_t k, GtopkWorkspace* ws,
                                         BcastAlgo bcast)
    : AsyncCollective(comm,
                      collectives::gtopk_allreduce_schedule(
                          comm.size(), collectives::kVariableBytes, bcast),
                      "gtopk.allreduce.async"),
      acc_(std::move(local)),
      k_(k),
      ws_(ws ? ws : &own_ws_),
      merge_tag_count_(collectives::gtopk_merge_tag_count(comm.size())) {}

const sparse::SparseGradient& AsyncGtopkAllreduce::result() const {
    if (!done()) {
        throw std::logic_error(
            "AsyncGtopkAllreduce: result() before completion");
    }
    return acc_;
}

sparse::SparseGradient AsyncGtopkAllreduce::take_result() {
    (void)result();  // completion check
    return std::move(acc_);
}

void AsyncGtopkAllreduce::record_merge_span(const collectives::CommOp& op) {
    obs::Tracer* tracer = comm().tracer();
    if (!tracer) return;
    tracer->record_detached(
        {.name = op.phase == 0 ? "gtopk.fold" : "gtopk.merge_round",
         .category = "agg", .rank = comm().physical_rank(),
         .v_begin_s = op_begin_s(), .v_end_s = last_event_s(),
         .attrs = {.nnz = static_cast<std::int64_t>(acc_.nnz()),
                   .peer = comm().to_physical(op.peer),
                   .round = op.phase == 1 ? op.round : -1}});
}

void AsyncGtopkAllreduce::op_send(const collectives::CommOp& op, int tag) {
    if (is_broadcast_op(op)) {
        if (!wire_ready_) {  // the root, at its first broadcast send
            sparse::serialize_into(acc_, ws_->wire);
            wire_ready_ = true;
            bcast_begin_s_ = op_begin_s();
        }
        send_async_copy(op, tag, ws_->wire);
        return;
    }
    // Merge stage: ship the running accumulator, serialized straight into a
    // pooled buffer.
    std::vector<std::byte> buf =
        comm().buffer_pool().acquire(sparse::wire_size_bytes(acc_.nnz()));
    sparse::serialize_into(acc_, buf);
    send_async(op, tag, std::move(buf));
    record_merge_span(op);
}

void AsyncGtopkAllreduce::op_recv(const collectives::CommOp& op,
                                  std::vector<std::byte> payload) {
    if (is_broadcast_op(op)) {
        // Land the broadcast in the workspace's wire buffer; the storage it
        // displaces recycles into this rank's pool.
        std::swap(ws_->wire, payload);
        comm().buffer_pool().release(std::move(payload));
        wire_ready_ = true;
        bcast_begin_s_ = op_begin_s();
        return;
    }
    // Validate once, merge straight off the wire bytes; the payload recycles
    // into this rank's pool when `raw` dies.
    const comm::PooledBuffer raw(std::move(payload), &comm().buffer_pool());
    const sparse::SparseGradientView v = sparse::deserialize_view(raw.bytes());
    sparse::topk_merge_into(acc_, v.dense_size, v.indices, v.values, k_, ws_->merge);
    if (op.phase == 1) ws_->metrics_for(comm().tracer()).merged(acc_.nnz());
    record_merge_span(op);
}

void AsyncGtopkAllreduce::on_complete() {
    obs::Tracer* tracer = comm().tracer();
    if (comm().size() == 1) {
        acc_ = sparse::sparse_topk(acc_, k_);
    } else {
        // Everyone — the root included, so all ranks hold bit-identical
        // results — materializes the broadcast wire as the result, reusing
        // acc_'s (already k-sized) storage.
        const sparse::SparseGradientView v = sparse::deserialize_view(ws_->wire);
        acc_.dense_size = v.dense_size;
        acc_.indices.assign(v.indices.begin(), v.indices.end());
        acc_.values.assign(v.values.begin(), v.values.end());
        if (tracer) {
            tracer->record_detached(
                {.name = "gtopk.broadcast", .category = "agg",
                 .rank = comm().physical_rank(), .v_begin_s = bcast_begin_s_,
                 .v_end_s = last_event_s(),
                 .attrs = {.bytes = static_cast<std::int64_t>(ws_->wire.size())}});
        }
    }
    ws_->metrics_for(tracer).invoked();
}

}  // namespace gtopk::core
