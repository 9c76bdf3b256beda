// Large-P virtual-time scale suite: the threaded cluster at P = 64/128/256.
//
// What melts at scale is not the math, it's the plumbing — O(queue)
// mailbox scans under the tag-wrap check, tag-band aliasing once hundreds
// of ranks burn tag blocks. These tests pin:
//
//   * gTop-k aggregation smoke at P = 64/128 (every rank bit-identical,
//     naive oracle agrees) and a membership regroup at P = 64;
//   * async-band tag wrap under collective pressure at P = 256: the cursor
//     wraps onto the band base mid-run on every rank simultaneously and the
//     collectives keep working — plus the wrap refusal when an async-band
//     message is still in flight;
//   * mailbox band counters: count_tag_at_least at the band bases is O(1)
//     and must agree exactly with a linear scan through pushes, pops and
//     epoch purges.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "collectives/collectives.hpp"
#include "comm/cluster.hpp"
#include "comm/fault_transport.hpp"
#include "comm/mailbox.hpp"
#include "comm/membership.hpp"
#include "comm/tags.hpp"
#include "core/aggregators.hpp"
#include "core/async_gtopk.hpp"
#include "sparse/sparse_gradient.hpp"

namespace gtopk {
namespace {

using comm::InProcTransport;
using comm::Mailbox;
using comm::Message;
using comm::NetworkModel;

// ---------------------------------------------------------------------------
// gTop-k collective smoke at P = 64 / 128

sparse::SparseGradient rank_gradient(int rank, std::int64_t dense_size,
                                     std::size_t k) {
    sparse::SparseGradient g;
    g.dense_size = dense_size;
    for (std::size_t i = 0; i < k; ++i) {
        // Strictly increasing per rank; overlapping across ranks so the
        // tree merges actually combine entries.
        g.indices.push_back(static_cast<std::int32_t>(i * 64 + (rank % 32)));
        g.values.push_back(1.0f + static_cast<float>((rank * 7 + i * 13) % 29) -
                           14.0f);
    }
    return g;
}

class GtopkScaleSmoke : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, GtopkScaleSmoke, ::testing::Values(64, 128));

TEST_P(GtopkScaleSmoke, AllRanksBitIdenticalForTreeAndNaive) {
    // The tree fold (Algorithm 3) and the naive AllGather path (Algorithm 2)
    // are different estimators on overlapping/cancelling inputs — what MUST
    // hold at scale is that each of them is bit-identical across all P
    // ranks (replica consistency is what training correctness rides on).
    const int world = GetParam();
    constexpr std::size_t k = 16;
    InProcTransport transport(world);
    std::vector<sparse::SparseGradient> tree(static_cast<std::size_t>(world));
    std::vector<sparse::SparseGradient> naive(static_cast<std::size_t>(world));
    std::vector<double> clock_s(static_cast<std::size_t>(world), -1.0);

    comm::Cluster::run_on(
        transport, NetworkModel::one_gbps_ethernet(),
        [&](comm::Communicator& c) {
            const int rank = c.rank();
            const sparse::SparseGradient local = rank_gradient(rank, 4096, k);
            tree[static_cast<std::size_t>(rank)] =
                core::gtopk_allreduce(c, local, k).global;
            naive[static_cast<std::size_t>(rank)] =
                core::naive_gtopk_allreduce(c, local, k).global;
            clock_s[static_cast<std::size_t>(rank)] = c.clock().now_s();
        });

    for (int r = 1; r < world; ++r) {
        EXPECT_EQ(tree[static_cast<std::size_t>(r)], tree[0]) << "rank " << r;
        EXPECT_EQ(naive[static_cast<std::size_t>(r)], naive[0]) << "rank " << r;
    }
    // A modeled (non-free) network must have advanced virtual time.
    for (int r = 0; r < world; ++r) {
        EXPECT_GT(clock_s[static_cast<std::size_t>(r)], 0.0) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Membership at scale: one regroup round over 63 survivors

TEST(MembershipScale, RegroupP64WithBoundedFanout) {
    const int world = 64;
    const int victim = 13;
    comm::FaultInjectingTransport transport(world, comm::FaultPlan{});
    comm::MembershipConfig mcfg;
    mcfg.join_grace_s = 30.0;
    comm::MembershipService svc(transport, mcfg);

    std::vector<comm::MembershipView> views(static_cast<std::size_t>(world));
    comm::Cluster::run_on(
        transport, NetworkModel::free(), [&](comm::Communicator& c) {
            const int rank = c.rank();
            if (rank == victim) {
                transport.kill_rank(rank);
                return;
            }
            views[static_cast<std::size_t>(rank)] = svc.regroup(rank);
        });

    for (int r = 0; r < world; ++r) {
        if (r == victim) continue;
        const comm::MembershipView& v = views[static_cast<std::size_t>(r)];
        EXPECT_EQ(v.epoch, 1) << "rank " << r;
        ASSERT_EQ(v.members.size(), static_cast<std::size_t>(world - 1));
        for (int m : v.members) EXPECT_NE(m, victim);
        EXPECT_EQ(v.members, views[victim == 0 ? 1u : 0u].members);
    }
}

// ---------------------------------------------------------------------------
// Async tag band wrap under large-P pressure

TEST(TagWrapScale, AsyncCursorWrapsMidRunAtP256) {
    const int world = 256;
    constexpr std::size_t k = 16;
    InProcTransport transport(world);
    std::vector<sparse::SparseGradient> before(static_cast<std::size_t>(world));
    std::vector<sparse::SparseGradient> after(static_cast<std::size_t>(world));
    std::vector<int> bases(static_cast<std::size_t>(2 * world), -1);

    comm::Cluster::run_on(
        transport, NetworkModel::free(), [&](comm::Communicator& c) {
            const int rank = c.rank();
            const sparse::SparseGradient local = rank_gradient(rank, 4096, k);
            core::AsyncGtopkAllreduce first(c, local, k);
            core::AsyncGtopkAllreduce second(c, local, k);
            // Park the cursor so the first handle takes the band's last
            // block and the second must wrap every rank onto kAsyncTagBase
            // simultaneously (SPMD lockstep); traffic tagged on either side
            // of the wrap must not alias.
            c.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() -
                                            first.schedule().tag_count);
            first.start();
            first.wait();
            second.start();
            second.wait();
            before[static_cast<std::size_t>(rank)] = first.take_result();
            after[static_cast<std::size_t>(rank)] = second.take_result();
            bases[static_cast<std::size_t>(2 * rank)] = first.tag_base();
            bases[static_cast<std::size_t>(2 * rank + 1)] = second.tag_base();
        });

    for (int r = 0; r < world; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(bases[2 * i], bases[0]) << "rank " << r;
        EXPECT_EQ(bases[2 * i + 1], comm::kAsyncTagBase) << "rank " << r;
        EXPECT_EQ(before[i].indices, before[0].indices) << "rank " << r;
        EXPECT_EQ(before[i].values, before[0].values) << "rank " << r;
        EXPECT_EQ(after[i].indices, before[0].indices) << "rank " << r;
        EXPECT_EQ(after[i].values, before[0].values) << "rank " << r;
    }
    EXPECT_GT(bases[0], comm::kAsyncTagBase);
    EXPECT_EQ(before[0].nnz(), k);
}

TEST(TagWrapScale, WrapWithAsyncTrafficInFlightRefusesToAlias) {
    InProcTransport transport(1);
    comm::Communicator c(transport, 0, NetworkModel::free());

    Message stale;
    stale.source = 0;
    stale.tag = comm::kAsyncTagBase + 5;  // an async-band message in flight
    transport.deliver(0, std::move(stale));

    c.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 1);
    EXPECT_THROW(c.fresh_async_tags(4), std::logic_error);

    // Drain it and the wrap is legal again.
    ASSERT_TRUE(transport.try_receive(0, 0, comm::kAsyncTagBase + 5).has_value());
    const int base = c.fresh_async_tags(4);
    EXPECT_EQ(base, comm::kAsyncTagBase);
}

// ---------------------------------------------------------------------------
// Mailbox band counters

Message make_msg(int source, int tag, int epoch = 0) {
    Message m;
    m.source = source;
    m.tag = tag;
    m.epoch = epoch;
    return m;
}

TEST(MailboxScale, BandCountersMatchLinearScanThroughMutation) {
    const int per_band = 256;  // P=256 worth of tags in each band
    Mailbox mb;
    for (int i = 0; i < per_band; ++i) {
        mb.push(make_msg(0, i));                          // user band
        mb.push(make_msg(0, comm::kAsyncTagBase + i));    // async band
    }
    // O(1) band-base fast paths...
    EXPECT_EQ(mb.count_tag_at_least(comm::kTagFloor),
              static_cast<std::size_t>(2 * per_band));
    EXPECT_EQ(mb.count_tag_at_least(comm::kAsyncTagBase),
              static_cast<std::size_t>(per_band));
    // ...and the generic scan threshold agrees (128 user tags above the
    // cut plus the whole async band, then half the async band).
    EXPECT_EQ(mb.count_tag_at_least(per_band / 2),
              static_cast<std::size_t>(per_band / 2 + per_band));
    EXPECT_EQ(mb.count_tag_at_least(comm::kAsyncTagBase + per_band / 2),
              static_cast<std::size_t>(per_band / 2));

    // Pops on each band must decrement exactly the right counter.
    constexpr int kUserBandProbe = 3;  // one of the user-band tags pushed above
    ASSERT_TRUE(mb.try_pop(0, kUserBandProbe).has_value());
    ASSERT_TRUE(mb.try_pop(0, comm::kAsyncTagBase + 7).has_value());
    ASSERT_TRUE(mb.try_pop(0, comm::kAsyncTagBase + 8).has_value());
    EXPECT_EQ(mb.count_tag_at_least(comm::kTagFloor),
              static_cast<std::size_t>(2 * per_band - 3));
    EXPECT_EQ(mb.count_tag_at_least(comm::kAsyncTagBase),
              static_cast<std::size_t>(per_band - 2));

    // Epoch purges go through the same accounting: stale messages in every
    // band vanish from their counters at once.
    Mailbox purged;
    for (int i = 0; i < 8; ++i) {
        purged.push(make_msg(0, i, /*epoch=*/0));
        purged.push(make_msg(0, comm::kAsyncTagBase + i, /*epoch=*/0));
        purged.push(make_msg(0, comm::kAsyncTagBase + 8 + i, /*epoch=*/1));
    }
    purged.set_min_epoch(1);
    EXPECT_EQ(purged.count_tag_at_least(comm::kTagFloor),
              static_cast<std::size_t>(8));
    EXPECT_EQ(purged.count_tag_at_least(comm::kAsyncTagBase),
              static_cast<std::size_t>(8));
}

}  // namespace
}  // namespace gtopk
