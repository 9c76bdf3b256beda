#include "core/aggregators.hpp"

#include <stdexcept>

#include "core/async_gtopk.hpp"
#include "obs/trace.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/wire.hpp"

namespace gtopk::core {

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
        metrics = {};
        if (tracer) {
            obs::MetricsRegistry& reg = tracer->metrics();
            metrics = {&reg.counter("gtopk.merge_rounds"),
                       &reg.histogram("gtopk.round_nnz"),
                       &reg.counter("gtopk.invocations")};
        }
        metrics_tracer = tracer;
    }
    return metrics;
}

GtopkResult gtopk_allreduce(Communicator& comm, const SparseGradient& local,
                            std::size_t k, const GtopkOptions& options) {
    AsyncGtopkAllreduce handle(comm, local, k, options.workspace, options.bcast);
    handle.start();
    handle.wait();
    return GtopkResult{handle.take_result()};
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
