// From-scratch MPI-style collectives over the point-to-point Communicator.
//
// Implemented algorithms (all schedule logic lives in schedule.hpp):
//   barrier             dissemination, ceil(log2 P) rounds
//   broadcast           binomial tree (default) or flat tree
//   reduce_sum          binomial-tree reduction to a root
//   allreduce ring      reduce-scatter + allgather ring, Eq. 5's
//                       2(P-1)a + 2 (P-1)/P m b cost
//   allreduce rec.dbl.  recursive doubling (power-of-two P), logP(a + m b)
//   allreduce raben.    recursive halving + doubling, 2 logP latency terms
//   allgather           recursive doubling (default; the paper's Eq. 6 cost
//                       log(P) a + (P-1) n b per contributed n) or ring
//   allgatherv          variable contribution sizes
//   gather              flat gather to a root
//
// Every collective EXECUTES the op program its schedule generator emits
// (schedule.hpp) as one AsyncCollective handle (async.hpp) — start() then
// wait() — so blocking and overlapped collectives share one executor, one
// async tag band and one NIC timeline. The generator decides peers, tags,
// ordering and element ranges; the code here only says what each Send op
// ships and how each Recv op's payload lands. The static model checker in
// src/analysis/ verifies the same programs, so the analyzed spec cannot
// drift from the running code by construction.
//
// All of them are value-semantic templates over trivially copyable T.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "collectives/async.hpp"
#include "collectives/schedule.hpp"
#include "comm/communicator.hpp"
#include "obs/trace.hpp"

namespace gtopk::collectives {

using comm::Communicator;

namespace detail {

/// A blocking collective's handle: `payload(op)` names the bytes a Send op
/// ships — a span is copied into a pooled buffer, a std::vector<std::byte>
/// (serialized straight into one from buffer_pool()) is moved — and
/// `land(op, bytes)` consumes a Recv op's payload. The caller's ScopedSpan
/// is the call's only span.
template <typename Payload, typename Land>
class CallbackCollective final : public AsyncCollective {
public:
    CallbackCollective(Communicator& comm, Schedule sched, Payload payload, Land land)
        : AsyncCollective(comm, std::move(sched), /*span_name=*/nullptr),
          payload_(std::move(payload)),
          land_(std::move(land)) {}

private:
    void op_send(const CommOp& op, int tag) override {
        if constexpr (std::is_same_v<std::invoke_result_t<Payload&, const CommOp&>,
                                     std::vector<std::byte>>) {
            send_async(op, tag, payload_(op));
        } else {
            send_async_copy(op, tag, payload_(op));
        }
    }
    void op_recv(const CommOp& op, std::vector<std::byte> bytes) override {
        land_(op, std::span<const std::byte>(bytes));
        comm().buffer_pool().release(std::move(bytes));
    }

    Payload payload_;
    Land land_;
};

/// Run `sched` to completion as one handle: start(); wait().
template <typename Payload, typename Land>
void run(Communicator& comm, Schedule sched, Payload payload, Land land) {
    CallbackCollective<Payload, Land> handle(comm, std::move(sched), std::move(payload),
                                             std::move(land));
    handle.start();
    handle.wait();
}

/// data[op.a, op.b).
template <typename T>
std::span<T> op_range(std::span<T> data, const CommOp& op) {
    return data.subspan(static_cast<std::size_t>(op.a),
                        static_cast<std::size_t>(op.b - op.a));
}

/// Overwrite `dst` with `bytes` (never through a null pointer: an empty
/// ring block has none).
template <typename T>
void copy_into(std::span<T> dst, std::span<const std::byte> bytes) {
    if (!dst.empty()) std::memcpy(dst.data(), bytes.data(), dst.size_bytes());
}

/// Elementwise dst[i] += bytes-as-T[i].
template <typename T>
void add_into(std::span<T> dst, std::span<const std::byte> bytes) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
        T v;
        std::memcpy(&v, bytes.data() + i * sizeof(T), sizeof(T));
        dst[i] += v;
    }
}

template <typename T>
void check_size(std::span<T> dst, std::span<const std::byte> bytes,
                std::string_view proto) {
    if (bytes.size() != dst.size_bytes()) {
        throw std::runtime_error(std::string(proto) + ": size mismatch");
    }
}

/// Execute a dense-element schedule over `data`: a Send op ships
/// data[op.a, op.b); a Recv op lands in data[op.a, op.b), summed in phase 0
/// when `Reduce` (the allreduces' reduce-scatter) and copied otherwise.
template <bool Reduce, typename T>
void run_dense(Communicator& comm, Schedule sched, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::string proto = sched.proto;
    run(comm, std::move(sched),
        [data](const CommOp& op) { return std::as_bytes(op_range(data, op)); },
        [data, proto = std::move(proto)](const CommOp& op,
                                         std::span<const std::byte> bytes) {
            const std::span<T> dst = op_range(data, op);
            check_size(dst, bytes, proto);
            if constexpr (Reduce) {
                if (op.phase == 0) return add_into(dst, bytes);
            }
            copy_into(dst, bytes);
        });
}

}  // namespace detail

/// Dissemination barrier: every rank is released only after transitively
/// hearing from every other rank.
inline void barrier(Communicator& comm) {
    if (comm.size() == 1) return;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "barrier",
                         "collective");
    const std::byte token{0};
    detail::run(
        comm, barrier_schedule(comm.size()),
        [&token](const CommOp&) { return std::span<const std::byte>(&token, 1); },
        [](const CommOp&, std::span<const std::byte>) {});
}

template <typename T>
void broadcast(Communicator& comm, std::vector<T>& data, int root,
               BcastAlgo algo = BcastAlgo::BinomialTree) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (comm.size() == 1) return;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "broadcast",
                         "collective");
    span.attrs().bytes = static_cast<std::int64_t>(data.size() * sizeof(T));
    // Non-root ranks don't know the payload size yet, so the ops carry the
    // whole (resizable) vector rather than element ranges.
    detail::run(
        comm,
        broadcast_schedule(comm.size(), root,
                           static_cast<std::int64_t>(data.size() * sizeof(T)), algo),
        [&data](const CommOp&) { return std::as_bytes(std::span<const T>(data)); },
        [&data, &span](const CommOp& op, std::span<const std::byte> bytes) {
            data.resize(bytes.size() / sizeof(T));
            detail::copy_into(std::span<T>(data), bytes);
            span.attrs().bytes = static_cast<std::int64_t>(data.size() * sizeof(T));
            span.attrs().round = op.round;
        });
}

/// Binomial-tree sum-reduction; the full result lands on `root` (other
/// ranks get their partial state back unchanged semantics-wise: the
/// returned vector is meaningful only on root).
template <typename T>
std::vector<T> reduce_sum(Communicator& comm, std::span<const T> local, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> acc(local.begin(), local.end());
    if (comm.size() == 1) return acc;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "reduce",
                         "collective");
    span.attrs().bytes = static_cast<std::int64_t>(acc.size() * sizeof(T));
    const std::span<T> dst(acc);
    detail::run(
        comm,
        reduce_schedule(comm.size(), root,
                        static_cast<std::int64_t>(acc.size() * sizeof(T))),
        [dst](const CommOp&) { return std::as_bytes(dst); },
        [dst](const CommOp&, std::span<const std::byte> bytes) {
            detail::check_size(dst, bytes, "reduce_sum");
            detail::add_into(dst, bytes);
        });
    return acc;
}

/// Ring allreduce (sum), in place: reduce-scatter pass then allgather pass,
/// 2(P-1) steps of m/P elements each — the DenseAllReduce of the paper.
template <typename T>
void allreduce_sum_ring(Communicator& comm, std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (comm.size() == 1) return;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "allreduce.ring", "collective");
    span.attrs().bytes = static_cast<std::int64_t>(data.size() * sizeof(T));
    // Phase 0 = reduce-scatter (accumulate), phase 1 = allgather.
    detail::run_dense</*Reduce=*/true>(
        comm,
        allreduce_ring_schedule(comm.size(), static_cast<std::int64_t>(data.size()),
                                static_cast<std::int64_t>(sizeof(T))),
        std::span<T>(data));
}

/// Recursive-doubling allreduce (sum), in place. Requires power-of-two P;
/// logP rounds of full-vector exchange — latency-optimal, bandwidth-heavy.
template <typename T>
void allreduce_sum_recursive_doubling(Communicator& comm, std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (comm.size() == 1) return;
    if (!is_power_of_two(comm.size())) {
        throw std::invalid_argument("recursive doubling requires power-of-two world");
    }
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "allreduce.recursive_doubling", "collective");
    span.attrs().bytes = static_cast<std::int64_t>(data.size() * sizeof(T));
    // Every exchange is phase 0: each round sums the partner's full vector.
    detail::run_dense</*Reduce=*/true>(
        comm,
        allreduce_recursive_doubling_schedule(comm.size(),
                                              static_cast<std::int64_t>(data.size()),
                                              static_cast<std::int64_t>(sizeof(T))),
        std::span<T>(data));
}

/// Rabenseifner allreduce (sum), in place: recursive-halving
/// reduce-scatter then recursive-doubling allgather. Same asymptotic
/// bandwidth as the ring (2 (P-1)/P m beta) but only 2 logP latency terms —
/// the classic choice for large messages at scale. Requires power-of-two P
/// and data.size() divisible by P (callers pad or pick the ring otherwise).
template <typename T>
void allreduce_sum_rabenseifner(Communicator& comm, std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (comm.size() == 1) return;
    if (!is_power_of_two(comm.size())) {
        throw std::invalid_argument("rabenseifner requires power-of-two world");
    }
    if (data.size() % static_cast<std::size_t>(comm.size()) != 0) {
        throw std::invalid_argument("rabenseifner requires m divisible by P");
    }
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(),
                         "allreduce.rabenseifner", "collective");
    span.attrs().bytes = static_cast<std::int64_t>(data.size() * sizeof(T));
    detail::run_dense</*Reduce=*/true>(
        comm,
        allreduce_rabenseifner_schedule(comm.size(),
                                        static_cast<std::int64_t>(data.size()),
                                        static_cast<std::int64_t>(sizeof(T))),
        std::span<T>(data));
}

template <typename T>
void allreduce_sum(Communicator& comm, std::vector<T>& data,
                   AllreduceAlgo algo = AllreduceAlgo::Ring) {
    switch (algo) {
        case AllreduceAlgo::Ring: allreduce_sum_ring(comm, data); break;
        case AllreduceAlgo::RecursiveDoubling:
            allreduce_sum_recursive_doubling(comm, data);
            break;
        case AllreduceAlgo::Rabenseifner: allreduce_sum_rabenseifner(comm, data); break;
    }
}

/// Allgather with equal per-rank contributions. Result is the concatenation
/// in rank order: [rank0 | rank1 | ... | rankP-1].
template <typename T>
std::vector<T> allgather(Communicator& comm, std::span<const T> mine,
                         AllgatherAlgo algo = AllgatherAlgo::RecursiveDoubling) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int world = comm.size();
    const std::size_t n = mine.size();
    std::vector<T> out(n * static_cast<std::size_t>(world));
    std::copy(mine.begin(), mine.end(),
              out.begin() + static_cast<std::ptrdiff_t>(n) * comm.rank());
    if (world == 1) return out;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "allgather",
                         "collective");
    span.attrs().bytes = static_cast<std::int64_t>(n * sizeof(T));
    detail::run_dense</*Reduce=*/false>(
        comm,
        allgather_schedule(world, static_cast<std::int64_t>(n),
                           static_cast<std::int64_t>(sizeof(T)), algo),
        std::span<T>(out));
    return out;
}

/// Allgather with per-rank variable sizes. Returns one vector per rank.
template <typename T>
std::vector<std::vector<T>> allgatherv(Communicator& comm, std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int world = comm.size();
    std::vector<std::vector<T>> out(static_cast<std::size_t>(world));
    out[static_cast<std::size_t>(comm.rank())].assign(mine.begin(), mine.end());
    if (world == 1) return out;
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "allgatherv",
                         "collective");
    span.attrs().bytes = static_cast<std::int64_t>(mine.size() * sizeof(T));

    // Ring of whole per-rank blocks; op operands are BLOCK indices because
    // element offsets depend on sizes only the owners know.
    detail::run(
        comm, allgatherv_schedule(world, {}),
        [&out](const CommOp& op) {
            return std::as_bytes(std::span<const T>(out[static_cast<std::size_t>(op.a)]));
        },
        [&out](const CommOp& op, std::span<const std::byte> bytes) {
            std::vector<T>& block = out[static_cast<std::size_t>(op.a)];
            block.resize(bytes.size() / sizeof(T));
            detail::copy_into(std::span<T>(block), bytes);
        });
    return out;
}

/// Flat gather of equal-size contributions to `root`; result meaningful on
/// root only (rank order concatenation).
template <typename T>
std::vector<T> gather(Communicator& comm, std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int world = comm.size();
    obs::ScopedSpan span(comm.tracer(), comm.clock(), comm.rank(), "gather",
                         "collective");
    span.attrs().bytes = static_cast<std::int64_t>(mine.size() * sizeof(T));
    const std::size_t n = mine.size();
    std::vector<T> out;
    if (comm.rank() == root) {
        out.resize(n * static_cast<std::size_t>(world));
        std::copy(mine.begin(), mine.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(n) * root);
    }
    // Non-root programs are one Send; root's are the Recvs (a = source block).
    const std::span<T> dst(out);
    detail::run(
        comm,
        gather_schedule(world, root, static_cast<std::int64_t>(n * sizeof(T))),
        [mine](const CommOp&) { return std::as_bytes(mine); },
        [dst, n](const CommOp& op, std::span<const std::byte> bytes) {
            const std::span<T> block = dst.subspan(static_cast<std::size_t>(op.a) * n, n);
            detail::check_size(block, bytes, "gather");
            detail::copy_into(block, bytes);
        });
    return out;
}

}  // namespace gtopk::collectives
