// Unit tests for the commcheck static model checker (src/analysis/):
// generator edge cases (world == 1, non-power-of-two worlds), hand-built
// negative schedules for every violation class, closed-form count rules and
// alpha-beta critical-path spot checks against cost_model.hpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "analysis/cost_rules.hpp"
#include "analysis/verify.hpp"
#include "collectives/cost_model.hpp"
#include "collectives/schedule.hpp"
#include "comm/network_model.hpp"
#include "comm/tags.hpp"

namespace gtopk {
namespace {

using collectives::AllgatherAlgo;
using collectives::AllreduceAlgo;
using collectives::BcastAlgo;
using collectives::CommOp;
using collectives::Schedule;
using collectives::kVariableBytes;
using analysis::verify_schedule;

bool has_violation(const analysis::VerifyResult& r, const std::string& check) {
    for (const auto& v : r.violations) {
        if (v.check == check) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// world == 1: every collective degenerates to zero messages. The generators
// must still emit a well-formed (single empty program) schedule, and the
// tag budget must mirror the implementations exactly — all of them early
// return before touching the communicator (tag_count 0) EXCEPT gather,
// which reserves its tag before the world check.
// ---------------------------------------------------------------------------

TEST(AnalysisWorldOne, AllGeneratorsEmitEmptyVerifiedSchedules) {
    const std::vector<std::int64_t> sizes = {64};
    const std::vector<Schedule> all = {
        collectives::barrier_schedule(1),
        collectives::broadcast_schedule(1, 0, 64, BcastAlgo::BinomialTree),
        collectives::broadcast_schedule(1, 0, 64, BcastAlgo::FlatTree),
        collectives::reduce_schedule(1, 0, 64),
        collectives::allreduce_ring_schedule(1, 16, 4),
        collectives::allreduce_recursive_doubling_schedule(1, 16, 4),
        collectives::allreduce_rabenseifner_schedule(1, 16, 4),
        collectives::allgather_schedule(1, 16, 4, AllgatherAlgo::RecursiveDoubling),
        collectives::allgather_schedule(1, 16, 4, AllgatherAlgo::Ring),
        collectives::allgatherv_schedule(1, sizes),
        collectives::gather_schedule(1, 0, 64),
        collectives::gtopk_merge_schedule(1, 272),
    };
    for (const Schedule& s : all) {
        SCOPED_TRACE(s.proto);
        const auto r = verify_schedule(s);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.total_messages, 0);
        ASSERT_EQ(s.ranks.size(), 1u);
        EXPECT_TRUE(s.rank_ops(0).empty());
        if (s.proto == "gather.flat") {
            // gather's implementation reserves its tag BEFORE the world
            // check, so the schedule must budget one even at world == 1.
            EXPECT_EQ(s.tag_count, 1);
        } else {
            EXPECT_EQ(s.tag_count, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Non-power-of-two worlds: the awkward sizes (P = 3, 5, 6, 12) exercise the
// fold/degrade paths. Every schedule must still verify clean and hit the
// closed-form message counts.
// ---------------------------------------------------------------------------

TEST(AnalysisOddWorlds, BarrierVerifiesAndMatchesClosedForm) {
    for (int world : {3, 5, 6, 12}) {
        SCOPED_TRACE(world);
        const Schedule s = collectives::barrier_schedule(world);
        const auto net = comm::NetworkModel::one_gbps_ethernet();
        const auto r = verify_schedule(s, &net);
        EXPECT_TRUE(r.ok());
        const auto want = analysis::expected_totals("barrier", world, 1, 1);
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(r.total_messages, want->messages);
        EXPECT_EQ(r.total_messages,
                  static_cast<std::int64_t>(world) * collectives::ilog2_ceil(world));
        // Tokens are 1 byte, so the critical path is ceil(log2 P) token
        // transfer times — NOT bare alpha.
        ASSERT_TRUE(r.critical_path_s.has_value());
        EXPECT_DOUBLE_EQ(*r.critical_path_s,
                         collectives::ilog2_ceil(world) * net.transfer_time_s(1));
    }
}

TEST(AnalysisOddWorlds, RingAllreduceUnevenBlocksVerifiesWithExactBytes) {
    // elems NOT divisible by world: blocks are uneven, but the total bytes
    // moved are still exactly 2 (P-1) m elem_bytes — each of the 2(P-1)
    // steps circulates every block exactly once.
    for (int world : {3, 5, 6, 12}) {
        SCOPED_TRACE(world);
        const std::int64_t elems = 17;
        const Schedule s = collectives::allreduce_ring_schedule(world, elems, 4);
        const auto r = verify_schedule(s);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.bytes_exact);
        const auto want = analysis::expected_totals("allreduce.ring", world, elems, 4);
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(r.total_messages, want->messages);
        ASSERT_TRUE(want->bytes.has_value());
        EXPECT_EQ(r.total_bytes, *want->bytes);
        EXPECT_EQ(r.total_bytes, 2 * (world - 1) * elems * 4);
    }
}

TEST(AnalysisOddWorlds, AllgathervUnevenSizesVerifies) {
    for (int world : {3, 5, 6, 12}) {
        SCOPED_TRACE(world);
        std::vector<std::int64_t> sizes;
        for (int r = 0; r < world; ++r) sizes.push_back(8 * r);  // includes 0
        const Schedule s = collectives::allgatherv_schedule(world, sizes);
        const auto r = verify_schedule(s);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.total_messages,
                  static_cast<std::int64_t>(world) * (world - 1));
    }
}

TEST(AnalysisOddWorlds, GtopkMergeFoldPlusTreeVerifies) {
    for (int world : {3, 5, 6, 12}) {
        SCOPED_TRACE(world);
        const Schedule s = collectives::gtopk_merge_schedule(world, 272);
        const auto r = verify_schedule(s);
        EXPECT_TRUE(r.ok());
        // Every rank's selection is handed off exactly once en route to 0.
        EXPECT_EQ(r.total_messages, world - 1);
        // Rank 0 never sends in the merge; it only accumulates.
        EXPECT_EQ(r.per_rank[0].sends, 0);
    }
}

TEST(AnalysisOddWorlds, TreeMergeStepThrowsOnNonPowerOfTwoWorld) {
    EXPECT_THROW(collectives::tree_merge_step(0, 0, 6), std::invalid_argument);
    EXPECT_THROW(collectives::tree_merge_step(2, 1, 12), std::invalid_argument);
    EXPECT_NO_THROW(collectives::tree_merge_step(0, 0, 8));
}

// ---------------------------------------------------------------------------
// Negative schedules: one hand-built reproducer per violation class, so the
// checker's alarms are themselves pinned by tests.
// ---------------------------------------------------------------------------

Schedule empty_schedule(int world, int tag_count) {
    Schedule s;
    s.proto = "test";
    s.world = world;
    s.tag_count = tag_count;
    s.ranks.resize(static_cast<std::size_t>(world));
    return s;
}

CommOp send(int peer, int tag, std::int64_t bytes = 8) {
    CommOp op;
    op.kind = CommOp::Kind::Send;
    op.peer = peer;
    op.tag_offset = tag;
    op.bytes = bytes;
    return op;
}

CommOp recv(int peer, int tag, std::int64_t bytes = 8) {
    CommOp op;
    op.kind = CommOp::Kind::Recv;
    op.peer = peer;
    op.tag_offset = tag;
    op.bytes = bytes;
    return op;
}

TEST(AnalysisViolations, CleanPingPongPasses) {
    Schedule s = empty_schedule(2, 2);
    s.ranks[0] = {send(1, 0), recv(1, 1)};
    s.ranks[1] = {recv(0, 0), send(0, 1)};
    EXPECT_TRUE(verify_schedule(s).ok());
}

TEST(AnalysisViolations, DeadlockCycleIsNamed) {
    // Classic head-to-head: both ranks recv before either sends.
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {recv(1, 0), send(1, 0)};
    s.ranks[1] = {recv(0, 0), send(0, 0)};
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "deadlock"));
}

TEST(AnalysisViolations, UnmatchedRecvIsAMatchViolation) {
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {recv(1, 0)};  // rank 1 never sends
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "match"));
    EXPECT_FALSE(has_violation(r, "deadlock"));
}

TEST(AnalysisViolations, UnconsumedSendIsAMatchViolation) {
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {send(1, 0)};  // rank 1 never receives
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "match"));
}

TEST(AnalysisViolations, TagOutsideReservedBlock) {
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {send(1, 1)};  // tag_count is 1, offset 1 out of range
    s.ranks[1] = {recv(0, 1)};
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "tag-range"));
}

TEST(AnalysisViolations, AbsoluteTagAboveFreshBase) {
    Schedule s = empty_schedule(2, 0);
    s.absolute_tags = true;
    s.ranks[0] = {send(1, comm::kAsyncTagBase)};  // collides with handle bands
    s.ranks[1] = {recv(0, comm::kAsyncTagBase)};
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "tag-range"));

    // The same tags below the base are legal.
    Schedule ok = empty_schedule(2, 0);
    ok.absolute_tags = true;
    ok.ranks[0] = {send(1, comm::kTagPsPush)};
    ok.ranks[1] = {recv(0, comm::kTagPsPush)};
    EXPECT_TRUE(verify_schedule(ok).ok());
}

TEST(AnalysisViolations, SelfMessageAndPeerOutOfRange) {
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {send(0, 0)};  // self-message
    s.ranks[1] = {send(7, 0)};  // peer out of range
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "well-formed"));
}

TEST(AnalysisViolations, DuplicateEdgeTagIsFifoAmbiguous) {
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {send(1, 0), send(1, 0)};
    s.ranks[1] = {recv(0, 0), recv(0, 0)};
    const auto r = verify_schedule(s);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(has_violation(r, "fifo"));
}

TEST(AnalysisViolations, RemapRejectsOpPeerOutsideScheduleWorld) {
    // A default-initialized peer (-1) must be rejected, not cast to a huge
    // size_t and used to index the survivor table out of bounds.
    Schedule s = empty_schedule(2, 1);
    s.ranks[0] = {send(-1, 0)};
    const std::vector<int> survivors = {0, 2};
    EXPECT_THROW(collectives::remap_schedule(s, survivors, 4),
                 std::invalid_argument);

    Schedule too_big = empty_schedule(2, 1);
    too_big.ranks[0] = {send(2, 0)};  // peer == world
    EXPECT_THROW(collectives::remap_schedule(too_big, survivors, 4),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// concat_schedules: consecutive tag blocks shift offsets exactly like
// consecutive fresh_async_tags() calls would.
// ---------------------------------------------------------------------------

TEST(AnalysisConcat, ShiftsTagOffsetsByRunningTagCount) {
    const int world = 4;
    const Schedule merge = collectives::gtopk_merge_schedule(world, 272);
    const Schedule bcast = collectives::broadcast_schedule(world, 0, 272);
    const std::vector<Schedule> parts = {merge, bcast};
    const Schedule full = collectives::concat_schedules("gtopk.allreduce", parts);

    EXPECT_EQ(full.tag_count, merge.tag_count + bcast.tag_count);
    const auto r = verify_schedule(full);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.total_messages, 2 * (world - 1));

    // Every broadcast op in the concatenation sits above the merge block.
    for (int rank = 0; rank < world; ++rank) {
        const auto& merged = full.rank_ops(rank);
        const auto& first = merge.rank_ops(rank);
        ASSERT_EQ(merged.size(), first.size() + bcast.rank_ops(rank).size());
        for (std::size_t i = first.size(); i < merged.size(); ++i) {
            EXPECT_GE(merged[i].tag_offset, merge.tag_count);
            EXPECT_LT(merged[i].tag_offset, full.tag_count);
        }
    }

    // gtopk_allreduce_schedule is exactly this composition.
    const Schedule fused = collectives::gtopk_allreduce_schedule(world, 272);
    EXPECT_EQ(fused.tag_count, full.tag_count);
    for (int rank = 0; rank < world; ++rank) {
        const auto& want = full.rank_ops(rank);
        const auto& got = fused.rank_ops(rank);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].kind, want[i].kind);
            EXPECT_EQ(got[i].peer, want[i].peer);
            EXPECT_EQ(got[i].tag_offset, want[i].tag_offset);
            EXPECT_EQ(got[i].bytes, want[i].bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Critical-path spot checks against cost_model.hpp (the paper's Table I).
// The commcheck CLI sweeps these over P = 1..64; here we pin a couple at
// unit-test granularity so a cost-model regression fails fast and local.
// ---------------------------------------------------------------------------

TEST(AnalysisCriticalPath, RingAllreduceMatchesEq5) {
    const auto net = comm::NetworkModel::one_gbps_ethernet();
    const int world = 4;
    const std::int64_t elems = 4096;  // divisible by world: Eq. 5 is exact
    const auto r =
        verify_schedule(collectives::allreduce_ring_schedule(world, elems, 4), &net);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.critical_path_s.has_value());
    EXPECT_NEAR(*r.critical_path_s,
                collectives::dense_allreduce_time_s(
                    net, world, static_cast<std::uint64_t>(elems)),
                1e-12);
}

TEST(AnalysisCriticalPath, BinomialBroadcastMatchesClosedForm) {
    const auto net = comm::NetworkModel::one_gbps_ethernet();
    const int world = 8;
    const std::int64_t elems = 1000;
    const auto r = verify_schedule(
        collectives::broadcast_schedule(world, 0, elems * 4), &net);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.critical_path_s.has_value());
    EXPECT_NEAR(*r.critical_path_s,
                collectives::broadcast_time_s(net, world,
                                              static_cast<std::uint64_t>(elems)),
                1e-12);
}

TEST(AnalysisCriticalPath, GtopkAllreduceMatchesEq7WithWireHeader) {
    // Wire payload is 16 header bytes + 8 bytes per selected element, i.e.
    // k + 2 four-byte "elements" in the paper's unit — Eq. 7 with k + 2.
    const auto net = comm::NetworkModel::one_gbps_ethernet();
    const int world = 8;
    const std::int64_t k = 32;
    const std::int64_t wire = 16 + 8 * k;
    const auto r = verify_schedule(collectives::gtopk_allreduce_schedule(world, wire),
                                   &net);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.critical_path_s.has_value());
    EXPECT_NEAR(*r.critical_path_s,
                collectives::gtopk_allreduce_time_s(
                    net, world, static_cast<std::uint64_t>(k + 2)),
                1e-12);
}

TEST(AnalysisCriticalPath, VariableBytesDisableTimingButKeepStructure) {
    const Schedule s = collectives::gtopk_merge_schedule(6, kVariableBytes);
    const auto net = comm::NetworkModel::one_gbps_ethernet();
    const auto r = verify_schedule(s, &net);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.bytes_exact);
    EXPECT_FALSE(r.critical_path_s.has_value());
}

}  // namespace
}  // namespace gtopk
