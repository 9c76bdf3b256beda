// AsyncGtopkAllreduce: the non-blocking form of core::gtopk_allreduce
// (Algorithm 3), built on the AsyncCollective engine — one handle per
// gradient bucket is what lets layer-wise gTop-k overlap communication with
// backward compute (DESIGN.md §14).
//
// The handle executes the SAME op program as the blocking implementation —
// gtopk_merge_schedule (fold + distance-doubling tree to rank 0) composed
// with broadcast_schedule via concat_schedules — over a private async tag
// band, and performs the same ⊤-merge per received contribution. Because
// each handle's merges are independent of every sibling's (disjoint tags,
// deterministic per-handle merge order), the result is bit-identical to
// running the blocking collective on the same inputs, regardless of how
// in-flight handles interleave.
#pragma once

#include <cstddef>
#include <vector>

#include "collectives/async.hpp"
#include "core/aggregators.hpp"
#include "sparse/sparse_gradient.hpp"
#include "sparse/topk_merge.hpp"

namespace gtopk::core {

class AsyncGtopkAllreduce final : public collectives::AsyncCollective {
public:
    /// `local` is this worker's k-sparse contribution, `k` the output
    /// sparsity (same contract as gtopk_allreduce). `scratch` (optional)
    /// shares merge temporaries across handles — safe because a rank's
    /// pumps execute ops one at a time, never two merges concurrently.
    AsyncGtopkAllreduce(comm::Communicator& comm, sparse::SparseGradient local,
                        std::size_t k, sparse::MergeScratch* scratch = nullptr);

    /// The aggregated global top-k; valid once done() (after wait() or a
    /// true test()).
    const sparse::SparseGradient& result() const;

private:
    void op_send(const collectives::CommOp& op, int tag) override;
    void op_recv(const collectives::CommOp& op,
                 std::vector<std::byte> payload) override;
    void on_complete() override;

    bool is_broadcast_op(const collectives::CommOp& op) const {
        return op.tag_offset >= merge_tag_count_;
    }

    sparse::SparseGradient acc_;
    std::size_t k_;
    sparse::MergeScratch own_scratch_;
    sparse::MergeScratch* scratch_;
    GtopkMetrics metrics_;  // resolved once per handle
    int merge_tag_count_ = 0;      // broadcast-stage ops have offsets past it
    std::vector<std::byte> wire_;  // serialized broadcast payload
};

}  // namespace gtopk::core
