// Per-iteration communication schedule of the parameter-server baseline:
// every worker pushes its gradient to the server (rank 0), the server
// aggregates and answers every worker with the global update.
//
// Unlike the SPMD collectives, the PS protocol runs on FIXED user tags
// (comm/tags.hpp: kTagPsPush / kTagPsPull) rather than an async-band block —
// the schedule is emitted with absolute_tags set, and the static checker
// verifies those tags stay below kAsyncTagBase. ps_trainer.cpp executes
// exactly this program as one absolute-tag AsyncCollective handle per
// iteration; src/analysis/ verifies the same one.
#pragma once

#include <cstdint>

#include "collectives/schedule.hpp"

namespace gtopk::ps {

/// One training iteration's exchange for `workers` workers (world size is
/// workers + 1; rank 0 is the server). Phase 0 = push (worker -> server, in
/// ascending worker order on the server), phase 1 = pull (server -> worker,
/// ascending). `push_bytes` / `pull_bytes` are exact dense payload sizes or
/// collectives::kVariableBytes for sparse (data-dependent) payloads. Op
/// operand `a` holds the worker id.
collectives::Schedule ps_iteration_schedule(int workers, std::int64_t push_bytes,
                                            std::int64_t pull_bytes);

}  // namespace gtopk::ps
