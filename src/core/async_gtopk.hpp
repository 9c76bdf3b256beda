// AsyncGtopkAllreduce: Algorithm 3 (gTopKAllReduce) as an AsyncCollective
// handle — the ONLY gTop-k program. The blocking core::gtopk_allreduce is
// this handle's start() + wait() + result(); one handle per gradient
// bucket is what lets layer-wise gTop-k overlap communication with backward
// compute (DESIGN.md §14).
//
// The op program is collectives::gtopk_allreduce_schedule (fold +
// distance-doubling tree to rank 0, then the broadcast), generated once per
// handle and run over a private async tag band; each received
// contribution is ⊤-merged into the handle's accumulator straight off the
// wire bytes. Because each handle's merges are independent of every
// sibling's (disjoint tags, deterministic per-handle merge order), the
// result is the same regardless of how in-flight handles interleave.
//
// Trace: the merge ops record the gtopk.fold / gtopk.merge_round spans
// (peer, round, nnz) and the broadcast stage one gtopk.broadcast span, all
// stamped on the handle's own timeline, which for a lone handle is the
// rank's clock.
#pragma once

#include <cstddef>
#include <vector>

#include "collectives/async.hpp"
#include "core/aggregators.hpp"
#include "sparse/sparse_gradient.hpp"

namespace gtopk::core {

class AsyncGtopkAllreduce final : public collectives::AsyncCollective {
public:
    /// `local` is this worker's k-sparse contribution, `k` the output
    /// sparsity (same contract as gtopk_allreduce). `ws` (optional) is the
    /// worker's GtopkWorkspace — merge scratch, broadcast wire buffer and
    /// metric handles — and may be shared by every handle of one rank: a
    /// rank's pumps run one op at a time, and a handle runs its broadcast
    /// stage from landing (or serializing) the wire to completion without
    /// suspending, so no two handles hold the wire at once. `bcast` picks
    /// the broadcast tree (flat for the merge-strategy ablation).
    AsyncGtopkAllreduce(comm::Communicator& comm, sparse::SparseGradient local,
                        std::size_t k, GtopkWorkspace* ws = nullptr,
                        BcastAlgo bcast = BcastAlgo::BinomialTree);

    /// The aggregated global top-k; valid once done() (after wait() or a
    /// true test()).
    const sparse::SparseGradient& result() const;
    /// Moves the result out (done() required); the handle is spent after.
    sparse::SparseGradient take_result();

private:
    void op_send(const collectives::CommOp& op, int tag) override;
    void op_recv(const collectives::CommOp& op,
                 std::vector<std::byte> payload) override;
    void on_complete() override;

    bool is_broadcast_op(const collectives::CommOp& op) const {
        return op.tag_offset >= merge_tag_count_;
    }
    /// Record one merge-stage op's span, [op_begin_s(), last_event_s()].
    void record_merge_span(const collectives::CommOp& op);

    sparse::SparseGradient acc_;
    std::size_t k_;
    GtopkWorkspace own_ws_;
    GtopkWorkspace* ws_;
    int merge_tag_count_ = 0;  // broadcast-stage ops have offsets past it
    bool wire_ready_ = false;  // ws_->wire holds this handle's broadcast image
    double bcast_begin_s_ = 0.0;  // the broadcast stage's span begin
};

}  // namespace gtopk::core
