// Central registry of user-facing point-to-point tags.
//
// Tag space discipline (machine-checked by tools/commcheck and the
// static_asserts below) — two disjoint bands:
//
//   [0, kAsyncTagBase)        user protocols: every hand-assigned tag in
//                             the tree must be listed here.
//   [kAsyncTagBase, INT_MAX)  Communicator::fresh_async_tags bands, one per
//                             AsyncCollective handle (collectives/async.hpp)
//                             — every collective, blocking or overlapped,
//                             runs as one. An SPMD cursor lives here so any
//                             number of concurrent handles get
//                             pairwise-disjoint tag bands without
//                             coordination traffic — two overlapping
//                             collectives can never alias tags.
//
// Keeping the bands disjoint is what lets a PS push (user tag) stay pending
// across a collective, and an overlapped per-bucket gTop-k stay in flight
// across a blocking collective, without any matching ambiguity.
#pragma once

#include <limits>

namespace gtopk::comm {

/// First tag of the band reserved for AsyncCollective handles; every user
/// tag must stay strictly below it. The cursor starts here and wraps back
/// here.
inline constexpr int kAsyncTagBase = 1 << 30;

/// Threshold meaning "every tag" for the at-least counters
/// (Mailbox::count_tag_at_least, Transport::pending_with_tag_at_least).
/// Tags are non-negative, so a floor of zero spans the whole mailbox.
inline constexpr int kTagFloor = 0;

enum UserTag : int {
    /// Parameter-server protocol (ps/ps_trainer.cpp).
    kTagPsPush = 101,  // worker -> server gradients
    kTagPsPull = 102,  // server -> worker aggregate

    /// Point-to-point tags used by tests (tests/).
    kTagTestData = 201,
    kTagTestAux = 202,
    kTagTestValue = 203,

    /// Recovery layer (comm/reliable_transport.hpp, comm/membership.hpp).
    kTagReliableData = 401,  // seq-numbered envelope around user traffic
    kTagReliableAck = 403,   // wire ARQ: cumulative ack frame (non-shared
                             // fabrics, where the tx edge cannot read the
                             // receiver's ack counter from memory)
    kTagReliablePull = 404,  // wire ARQ: gap-recovery pull (next expected
                             // seq; the remote tx answers with retransmits)
    kTagMembershipJoin = 405,  // wire regroup: joiner -> leader JOIN
    kTagMembershipView = 406,  // wire regroup: leader -> member agreed VIEW

    /// Telemetry plane (obs/telemetry.hpp). The per-iteration stats
    /// allgather uses one absolute tag per ring round, so the band
    /// [kTagTelemetryBase, kTagTelemetryBase + kTagTelemetryCount) is
    /// reserved — no other user tag may land inside it. A dedicated band
    /// (rather than a handle's async band) keeps the telemetry exchange OFF
    /// the SPMD tag cursor, so enabling it cannot shift any collective's
    /// tag block — telemetry on/off stays bit-identical by construction.
    kTagTelemetryBase = 10'000,
};

/// Width of the telemetry tag band: one tag per ring round supports worlds
/// up to kTagTelemetryCount + 1 ranks.
inline constexpr int kTagTelemetryCount = 1024;

static_assert(kTagTelemetryBase + kTagTelemetryCount < kAsyncTagBase,
              "telemetry band must stay below the async band");
static_assert(kTagReliableAck < kTagTelemetryBase &&
                  kTagReliablePull < kTagTelemetryBase &&
                  kTagMembershipJoin < kTagTelemetryBase &&
                  kTagMembershipView < kTagTelemetryBase,
              "point-to-point user tags must stay below the telemetry band");
static_assert(kTagPsPush < kAsyncTagBase && kTagPsPull < kAsyncTagBase &&
                  kTagTestData < kAsyncTagBase && kTagTestAux < kAsyncTagBase &&
                  kTagTestValue < kAsyncTagBase &&
                  kTagReliableData < kAsyncTagBase &&
                  kTagReliableAck < kAsyncTagBase && kTagReliablePull < kAsyncTagBase &&
                  kTagMembershipJoin < kAsyncTagBase &&
                  kTagMembershipView < kAsyncTagBase,
              "user tags must stay below the async band");
static_assert(kTagPsPush >= 0, "user tags are non-negative");

static_assert(kAsyncTagBase < std::numeric_limits<int>::max(),
              "the async band must be non-empty");
static_assert(std::numeric_limits<int>::max() - kAsyncTagBase >= (1 << 30) - 1,
              "async band must be wide enough for deep per-handle tag blocks");

}  // namespace gtopk::comm
