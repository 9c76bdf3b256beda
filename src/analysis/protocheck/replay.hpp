// Conformance bridge between protocheck models and the real
// ReliableTransport / MembershipService.
//
// The models and the implementations execute the same fsm::* transition
// functions, but the implementations wrap them in threads, mailboxes,
// backoff timers and byte-level envelopes — the bridge demonstrates that
// the wrapping preserves the modeled behavior, in both directions:
//
//   model -> code   a counterexample trace found by the checker (under a
//                   seeded invariant break) replays through the REAL stack
//                   and reproduces the real failure the model predicted;
//   code -> model   random adversary walks through the model replay
//                   through the real stack and the observable outcomes
//                   (app-delivered sequence, event counters) match exactly.
//
// Determinism: replay configures an effectively-infinite retransmit
// backoff so the transport's own recovery never fires spontaneously —
// recovery happens exactly where the trace says (recover_now), making the
// real run a function of the trace alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/protocheck/arq_model.hpp"
#include "analysis/protocheck/membership_model.hpp"

namespace gtopk::analysis::protocheck {

struct ArqReplayResult {
    /// App-visible payload sequence numbers, in delivery order.
    std::vector<std::uint64_t> delivered;
    std::uint64_t retransmits = 0;
    std::uint64_t corrupt_dropped = 0;
    std::uint64_t dup_dropped = 0;
    std::uint64_t stale_skipped = 0;
};

/// Walk `trace` through a real ReliableTransport (over a scripted fabric
/// whose drop/dup/reorder/corrupt/kill knobs the trace drives) and report
/// what the application actually observed.
ArqReplayResult replay_arq_trace(const ArqModelConfig& cfg,
                                 const std::vector<ArqModel::Action>& trace);

/// Walk `trace` through the ArqModel itself and report the predicted
/// observations (delivered = seqs with fate kDelivered, ascending — the
/// in-order invariant makes that the delivery order) plus the final state.
struct ArqModelOutcome {
    ArqReplayResult predicted;
    std::string violation;  // empty when the trace stays invariant-clean
};
ArqModelOutcome simulate_arq_trace(const ArqModelConfig& cfg,
                                   const std::vector<ArqModel::Action>& trace);

/// Replay + simulate and compare. Returns nullopt on exact agreement,
/// otherwise a human-readable description of the first divergence.
std::optional<std::string> arq_conformance_diff(
    const ArqModelConfig& cfg, const std::vector<ArqModel::Action>& trace);

/// Random adversary walks: `samples` traces of at most `max_steps` actions
/// each (uniform over enabled actions, seeded), every one checked with
/// arq_conformance_diff. Returns the first divergence found.
std::optional<std::string> arq_random_conformance(const ArqModelConfig& cfg,
                                                  int samples, int max_steps,
                                                  std::uint64_t seed);

/// Replay the Join/Kill skeleton of `trace` through a real threaded
/// MembershipService and compare: every view the model's ranks installed
/// must be returned by some real regroup() call, in epoch order. Returns
/// nullopt on agreement.
std::optional<std::string> membership_conformance_diff(
    const MembershipModelConfig& cfg,
    const std::vector<MembershipModel::Action>& trace);

}  // namespace gtopk::analysis::protocheck
