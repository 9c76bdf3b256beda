#include "core/aggregators.hpp"

#include <stdexcept>

#include "collectives/schedule.hpp"
#include "obs/trace.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/wire.hpp"

namespace gtopk::core {

namespace {

void send_sparse(Communicator& comm, int dst, int tag, const SparseGradient& g,
                 bool pooled) {
    if (pooled) {
        // Serialize straight into a pooled buffer and move it into the
        // message — no owning temporary, no copy into the payload.
        std::vector<std::byte> buf =
            comm.buffer_pool().acquire(sparse::wire_size_bytes(g.nnz()));
        sparse::serialize_into(g, buf);
        comm.send_buffer(dst, tag, std::move(buf));
    } else {
        const std::vector<std::byte> bytes = sparse::serialize(g);
        comm.send(dst, tag, bytes);
    }
}

SparseGradient recv_sparse(Communicator& comm, int src, int tag) {
    return sparse::deserialize(comm.recv(src, tag));
}

/// Receive a sparse gradient and fold it into `acc` with ⊤. The pooled
/// path validates the wire bytes once and merges directly off them (the
/// payload recycles into this rank's pool when `raw` dies); the owning
/// path reproduces the PR-1 materialize-add-reselect sequence.
void recv_merge(Communicator& comm, int src, int tag, SparseGradient& acc,
                std::size_t k, bool pooled, GtopkWorkspace& ws) {
    if (pooled) {
        const comm::PooledBuffer raw = comm.recv_buffer(src, tag);
        const sparse::SparseGradientView v = sparse::deserialize_view(raw.bytes());
        sparse::topk_merge_into(acc, v.dense_size, v.indices, v.values, k, ws.merge);
    } else {
        const SparseGradient incoming = recv_sparse(comm, src, tag);
        acc = sparse::topk_merge(acc, incoming, k);
    }
}

}  // namespace

GtopkMetrics GtopkMetrics::resolve(obs::Tracer* tracer) {
    if (!tracer) return {};
    obs::MetricsRegistry& reg = tracer->metrics();
    return {&reg.counter("gtopk.merge_rounds"), &reg.histogram("gtopk.round_nnz"),
            &reg.counter("gtopk.invocations")};
}

void GtopkMetrics::merged(std::size_t nnz) const {
    if (!merge_rounds) return;
    merge_rounds->add(1);
    round_nnz->record(nnz);
}

void GtopkMetrics::invoked() const {
    if (invocations) invocations->add(1);
}

const GtopkMetrics& GtopkWorkspace::metrics_for(obs::Tracer* tracer) {
    if (tracer != metrics_tracer) {
        metrics = GtopkMetrics::resolve(tracer);
        metrics_tracer = tracer;
    }
    return metrics;
}

GtopkResult gtopk_allreduce(Communicator& comm, const SparseGradient& local,
                            std::size_t k, const GtopkOptions& options) {
    const int world = comm.size();
    const int rank = comm.rank();
    SparseGradient acc = local;

    GtopkWorkspace local_ws;
    GtopkWorkspace& ws = options.workspace ? *options.workspace : local_ws;

    obs::Tracer* tracer = comm.tracer();
    const GtopkMetrics& metrics = ws.metrics_for(tracer);
    obs::ScopedSpan op_span(tracer, comm.clock(), rank, "gtopk.allreduce", "agg");
    op_span.attrs().nnz = static_cast<std::int64_t>(local.nnz());

    if (world > 1) {
        // The merge schedule is the generator's op program: phase 0 folds
        // ranks beyond the largest power-of-two base into the base so the
        // tree sees a power-of-two world; phase 1 is the distance-doubling
        // tree of Fig. 4 — at round r, ranks at stride 2^r pair up, the
        // odd-position one ships its [V, I] to its even peer, which merges
        // with ⊤ and carries the result into the next round. After
        // log2(base) rounds rank 0 holds the global top-k.
        const collectives::Schedule sched =
            collectives::gtopk_merge_schedule(world, collectives::kVariableBytes);
        const int tag = comm.fresh_tags(sched.tag_count);
        for (const collectives::CommOp& op : sched.rank_ops(rank)) {
            const char* span_name = op.phase == 0 ? "gtopk.fold" : "gtopk.merge_round";
            obs::ScopedSpan op_round(tracer, comm.clock(), rank, span_name, "agg");
            op_round.attrs().peer = op.peer;
            if (op.phase == 1) op_round.attrs().round = op.round;
            if (op.kind == collectives::CommOp::Kind::Send) {
                op_round.attrs().nnz = static_cast<std::int64_t>(acc.nnz());
                send_sparse(comm, op.peer, tag + op.tag_offset, acc, options.pooled);
            } else {
                recv_merge(comm, op.peer, tag + op.tag_offset, acc, k, options.pooled,
                           ws);
                op_round.attrs().nnz = static_cast<std::int64_t>(acc.nnz());
                if (op.phase == 1) metrics.merged(acc.nnz());
            }
        }

        // Line 19 of Algorithm 3: broadcast rank 0's result to everyone.
        // ws.wire is the reused broadcast buffer: the root serializes into
        // it, receivers land in it, and the final copy into `acc` reuses
        // acc's (already k-sized) storage.
        obs::ScopedSpan bcast_span(tracer, comm.clock(), rank, "gtopk.broadcast",
                                   "agg");
        if (rank == 0) {
            sparse::serialize_into(acc, ws.wire);
        } else {
            ws.wire.clear();
        }
        collectives::broadcast(comm, ws.wire, /*root=*/0, options.bcast);
        bcast_span.attrs().bytes = static_cast<std::int64_t>(ws.wire.size());
        if (options.pooled) {
            const sparse::SparseGradientView v = sparse::deserialize_view(ws.wire);
            acc.dense_size = v.dense_size;
            acc.indices.assign(v.indices.begin(), v.indices.end());
            acc.values.assign(v.values.begin(), v.values.end());
        } else {
            acc = sparse::deserialize(ws.wire);
        }
    } else {
        acc = sparse::sparse_topk(acc, k);
    }

    metrics.invoked();
    return GtopkResult{std::move(acc)};
}

GtopkResult naive_gtopk_allreduce(Communicator& comm, const SparseGradient& local,
                                  std::size_t k) {
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "gtopk.naive_allreduce", "agg");
    span.attrs().nnz = static_cast<std::int64_t>(local.nnz());
    const std::vector<std::byte> mine = sparse::serialize(local);
    const auto all = collectives::allgatherv<std::byte>(comm, mine);
    SparseGradient sum;
    sum.dense_size = local.dense_size;
    for (const auto& bytes : all) {
        sum = sparse::add(sum, sparse::deserialize(bytes));
    }
    return GtopkResult{sparse::sparse_topk(sum, k)};
}

std::vector<float> topk_allreduce(Communicator& comm, const SparseGradient& local,
                                  AllgatherAlgo algo) {
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "topk.allreduce", "agg");
    span.attrs().nnz = static_cast<std::int64_t>(local.nnz());
    // The paper transfers exactly 2k values per worker ([V, I] of equal
    // length k), which keeps contributions equal-sized and lets the
    // efficient equal-block AllGather apply. Our wire format matches that
    // plus a fixed 16-byte header. Equal sizes are a requirement of
    // Algorithm 1 (every worker selects exactly k); enforce it.
    const std::vector<std::byte> mine = sparse::serialize(local);
    std::vector<std::byte> gathered =
        collectives::allgather<std::byte>(comm, mine, algo);

    std::vector<float> dense(static_cast<std::size_t>(local.dense_size), 0.0f);
    const std::size_t block = mine.size();
    for (int g = 0; g < comm.size(); ++g) {
        const std::span<const std::byte> bytes(gathered.data() + block * static_cast<std::size_t>(g),
                                               block);
        // Zero-copy: validate the block once, scatter straight off the
        // gathered wire bytes (block offsets are 4-byte aligned: the wire
        // size 16 + 8k is divisible by 4).
        const sparse::SparseGradientView part = sparse::deserialize_view(bytes);
        if (part.dense_size != local.dense_size || part.nnz() != local.nnz()) {
            throw std::runtime_error(
                "topk_allreduce: workers must contribute equal-size selections");
        }
        part.scatter_add(dense);
    }
    return dense;
}

std::vector<float> dense_allreduce(Communicator& comm, std::span<const float> grad,
                                   AllreduceAlgo algo) {
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "dense.allreduce", "agg");
    span.attrs().bytes = static_cast<std::int64_t>(grad.size() * sizeof(float));
    std::vector<float> data(grad.begin(), grad.end());
    collectives::allreduce_sum(comm, data, algo);
    return data;
}

}  // namespace gtopk::core
