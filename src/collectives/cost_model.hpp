// Analytical time predictions for the collectives under the alpha-beta
// model — the right-hand column of the paper's Table I plus a few extras.
// Tests assert that the virtual-time cluster measures exactly these values
// for power-of-two worlds, which pins the simulator to the paper's math.
#pragma once

#include <cstdint>

#include "comm/network_model.hpp"

namespace gtopk::collectives {

/// Eq. 5 — ring DenseAllReduce of m elements on P workers:
/// 2(P-1) alpha + 2 (P-1)/P m beta.
double dense_allreduce_time_s(const comm::NetworkModel& net, int workers,
                              std::uint64_t elements);

/// Eq. 6 — TopKAllReduce via recursive-doubling AllGather of 2k elements
/// (k values + k indices) per worker: log(P) alpha + 2(P-1) k beta.
double topk_allreduce_time_s(const comm::NetworkModel& net, int workers,
                             std::uint64_t k);

/// Eq. 7 — gTopKAllReduce: logP rounds of 2k-element merges plus a
/// logP-round broadcast of 2k elements: 2 log(P) alpha + 4 k log(P) beta.
double gtopk_allreduce_time_s(const comm::NetworkModel& net, int workers,
                              std::uint64_t k);

/// Binomial broadcast of n elements: ceil(log2 P) (alpha + n beta).
double broadcast_time_s(const comm::NetworkModel& net, int workers,
                        std::uint64_t elements);

/// Flat-tree broadcast of n elements: (P-1)(alpha + n beta) at the root.
double flat_broadcast_time_s(const comm::NetworkModel& net, int workers,
                             std::uint64_t elements);

/// Recursive-doubling allgather with n elements contributed per rank:
/// log(P) alpha + (P-1) n beta.
double allgather_time_s(const comm::NetworkModel& net, int workers,
                        std::uint64_t elements_per_rank);

/// Rabenseifner allreduce: 2 log(P) alpha + 2 (P-1)/P m beta — ring
/// bandwidth at logarithmic latency (power-of-two P).
double rabenseifner_allreduce_time_s(const comm::NetworkModel& net, int workers,
                                     std::uint64_t elements);

}  // namespace gtopk::collectives
