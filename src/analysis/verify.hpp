// Static model checker for collective communication schedules.
//
// verify_schedule() takes a Schedule — the exact op program the live
// collectives execute (schedule.hpp) — and proves, without threads:
//
//   * well-formedness     peers in range, no self-messaging, sane ranges
//   * tag discipline      tag-block offsets inside [0, tag_count);
//                         absolute (user) tags inside [0, kAsyncTagBase)
//   * FIFO-unambiguity    no (src, dst, tag) is sent twice within one
//                         schedule instance, so wildcard-free matching
//                         never depends on arrival interleavings
//   * match-completeness  every send consumed, every recv satisfied
//   * deadlock-freedom    simulated execution (eager buffered sends,
//                         blocking matched recvs — the Mailbox semantics)
//                         terminates; on a stall the wait-for graph names
//                         the cycle or the missing message
//
// The same pass simulates the alpha-beta virtual clock, so when every op
// carries exact bytes the critical-path time comes out for free and can be
// checked against cost_model.hpp (the paper's Table I column).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "collectives/schedule.hpp"
#include "comm/network_model.hpp"

namespace gtopk::analysis {

/// One failed check. `rank` is -1 for schedule-global violations.
struct Violation {
    std::string check;   // "well-formed", "tag-range", "fifo", "match", "deadlock"
    int rank = -1;
    std::string detail;  // human-readable, names ops/peers/tags
};

/// Per-rank traffic totals derived from the op program.
struct RankTraffic {
    std::int64_t sends = 0;
    std::int64_t recvs = 0;
    /// Sum of exact send bytes; meaningful only when bytes_exact.
    std::int64_t bytes_sent = 0;
    /// False when any op on this rank carries kVariableBytes.
    bool bytes_exact = true;
};

struct VerifyResult {
    std::vector<Violation> violations;
    std::vector<RankTraffic> per_rank;
    std::int64_t total_messages = 0;
    std::int64_t total_bytes = 0;   // meaningful only when bytes_exact
    bool bytes_exact = true;
    /// Simulated alpha-beta completion time (max over rank clocks) when a
    /// network model was supplied, all bytes are exact and the schedule is
    /// violation-free; nullopt otherwise.
    std::optional<double> critical_path_s;

    bool ok() const { return violations.empty(); }
};

/// Run every static check over `sched`. `net` (optional) prices the
/// simulated execution so critical_path_s can be compared against the
/// closed forms in collectives/cost_model.hpp.
VerifyResult verify_schedule(const collectives::Schedule& sched,
                             const comm::NetworkModel* net = nullptr);

/// Concurrent schedule-set checker — the static mirror of N AsyncCollective
/// handles in flight on one Communicator (collectives/async.hpp). `parts[i]`
/// executes with its tag offsets rebased to `tag_bases[i]` (the value
/// fresh_async_tags returned for that handle). Proves, on top of
/// verify_schedule's static checks on every part:
///
///   * band layout       every base at or above kAsyncTagBase, every
///                       [base_i, base_i + tag_count_i) band pairwise
///                       disjoint ("band-overlap" violations) — the property
///                       that makes overlapped runs tag-unambiguous
///   * cross-part fifo   no (src, dst, absolute tag) sent by two parts
///   * deadlock-freedom  combined simulation of the pump-all executor:
///                       every rank interleaves all parts' programs, eager
///                       buffered sends, recvs block only their own part
///
/// per_rank / totals aggregate across parts; critical_path_s prices the
/// combined execution (one clock per rank — the executor is one thread per
/// rank) when `net` is given and all bytes are exact.
VerifyResult verify_concurrent_schedules(
    std::span<const collectives::Schedule> parts, std::span<const int> tag_bases,
    const comm::NetworkModel* net = nullptr);

/// Survivor-confinement check for regrouped schedules (the static mirror of
/// membership epochs): every op must live ON a survivor rank and talk TO a
/// survivor rank — dead ranks neither run programs nor appear as peers.
/// `survivors` are strictly ascending physical ranks < sched.world; any
/// op placed on or addressing a non-survivor is a violation ("confinement").
std::vector<Violation> verify_survivor_confinement(
    const collectives::Schedule& sched, std::span<const int> survivors);

}  // namespace gtopk::analysis
