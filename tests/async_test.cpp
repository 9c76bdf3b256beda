// Async collective engine unit tests: handle state machine, per-handle tag
// sub-bands (never aliasing the blocking fresh band or each other), NIC
// timeline semantics, the bucketer, and the static concurrent-schedule
// checker that certifies the executor model (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/verify.hpp"
#include "collectives/collectives.hpp"
#include "collectives/schedule.hpp"
#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/tags.hpp"
#include "core/aggregators.hpp"
#include "core/async_gtopk.hpp"
#include "perfmodel/overlap_model.hpp"
#include "sparse/sparse_gradient.hpp"
#include "train/bucketer.hpp"

namespace {

using namespace gtopk;
using comm::NetworkModel;
using core::AsyncGtopkAllreduce;
using sparse::SparseGradient;
using train::fuse_buckets;
using train::GradBucket;

SparseGradient make_local(int rank, int salt, std::int64_t dense, std::size_t k) {
    SparseGradient g;
    g.dense_size = dense;
    const std::int64_t stride = dense / static_cast<std::int64_t>(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::int64_t idx =
            (static_cast<std::int64_t>(i) * stride + rank * 3 + salt * 7) % dense;
        g.indices.push_back(static_cast<std::int32_t>(idx));
        g.values.push_back(0.01f * static_cast<float>(rank + 1) +
                           0.001f * static_cast<float>(i + salt));
    }
    std::sort(g.indices.begin(), g.indices.end());
    g.indices.erase(std::unique(g.indices.begin(), g.indices.end()),
                    g.indices.end());
    g.values.resize(g.indices.size());
    return g;
}

// ---------------------------------------------------------------------------
// Handle state machine
// ---------------------------------------------------------------------------

TEST(AsyncCollective, CommTimeEqualsClockAdvanceForOneHandle) {
    // CommStats::comm_time_s counts the virtual seconds the clock advanced,
    // and a handle moves the clock only in wait(): its NIC-timeline sends
    // must not be charged a second time. Skewed issue times make some ranks
    // wait on late peers and others not.
    for (const comm::NetworkModel net : {NetworkModel::one_gbps_ethernet(),
                                         NetworkModel::ten_gbps_ethernet()}) {
        for (const int world : {2, 5, 8}) {
            comm::Cluster::run(world, net, [&](comm::Communicator& c) {
                c.clock().advance(1e-4 * ((c.rank() * 7) % world));
                const double t0 = c.clock().now_s();
                const double s0 = c.stats().comm_time_s;
                AsyncGtopkAllreduce h(c, make_local(c.rank(), 0, 4000, 64), 64);
                h.start();
                h.wait();
                EXPECT_GT(c.clock().now_s(), t0) << "rank " << c.rank();
                EXPECT_DOUBLE_EQ(c.stats().comm_time_s - s0, c.clock().now_s() - t0)
                    << "world " << world << " rank " << c.rank();
            });
        }
    }
}

TEST(AsyncCollective, LifecycleMisuseThrows) {
    comm::Cluster::run(2, NetworkModel::free(), [](comm::Communicator& c) {
        {
            AsyncGtopkAllreduce h(c, make_local(c.rank(), 0, 1000, 8), 8);
            EXPECT_THROW(h.wait(), std::logic_error);   // before start
            EXPECT_THROW(h.test(), std::logic_error);   // before start
            h.start();
            EXPECT_THROW(h.start(), std::logic_error);  // double start
            h.wait();
            EXPECT_THROW(h.wait(), std::logic_error);   // double wait
            EXPECT_TRUE(h.done());
            (void)h.result();
        }
        {
            AsyncGtopkAllreduce h(c, make_local(c.rank(), 1, 1000, 8), 8);
            EXPECT_THROW(h.result(), std::logic_error);  // before completion
            h.start();
            h.wait();
        }
    });
}

TEST(AsyncCollective, WorldSizeOneCompletesOnStart) {
    comm::Cluster::run(1, NetworkModel::free(), [](comm::Communicator& c) {
        AsyncGtopkAllreduce h(c, make_local(0, 0, 500, 16), 4);
        h.start();
        EXPECT_TRUE(h.done());  // empty op program
        h.wait();
        EXPECT_EQ(h.result().nnz(), 4u);
    });
}

// ---------------------------------------------------------------------------
// Concurrent handles: bit-identical to the blocking collective
// ---------------------------------------------------------------------------

class AsyncVsBlocking : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, AsyncVsBlocking, ::testing::Values(2, 3, 4, 5, 8));

TEST_P(AsyncVsBlocking, TwoInFlightHandlesMatchBlockingGtopk) {
    const int world = GetParam();
    constexpr int kBuckets = 3;
    std::vector<std::vector<SparseGradient>> got(
        static_cast<std::size_t>(world));
    std::vector<std::vector<SparseGradient>> want(
        static_cast<std::size_t>(world));

    comm::Cluster::run(world, NetworkModel::one_gbps_ethernet(),
                       [&](comm::Communicator& c) {
        std::vector<std::unique_ptr<AsyncGtopkAllreduce>> handles;
        for (int b = 0; b < kBuckets; ++b) {
            auto local = make_local(c.rank(), b, 4000 + b * 512, 12);
            handles.push_back(std::make_unique<AsyncGtopkAllreduce>(
                c, std::move(local), 12));
            handles.back()->set_priority(b);
            handles.back()->start();
        }
        // Drain out of issue order on purpose: completion must not depend
        // on wait() order (pump-all progresses every handle).
        for (int b = kBuckets - 1; b >= 0; --b) {
            handles[static_cast<std::size_t>(b)]->wait();
            got[static_cast<std::size_t>(c.rank())].push_back(
                handles[static_cast<std::size_t>(b)]->result());
        }
    });
    comm::Cluster::run(world, NetworkModel::one_gbps_ethernet(),
                       [&](comm::Communicator& c) {
        for (int b = kBuckets - 1; b >= 0; --b) {
            const auto local = make_local(c.rank(), b, 4000 + b * 512, 12);
            const auto res = core::gtopk_allreduce(c, local, 12);
            want[static_cast<std::size_t>(c.rank())].push_back(res.global);
        }
    });

    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
                  want[static_cast<std::size_t>(r)].size());
        for (std::size_t b = 0; b < got[static_cast<std::size_t>(r)].size(); ++b) {
            EXPECT_EQ(got[static_cast<std::size_t>(r)][b].indices,
                      want[static_cast<std::size_t>(r)][b].indices)
                << "rank " << r << " bucket " << b;
            EXPECT_EQ(got[static_cast<std::size_t>(r)][b].values,
                      want[static_cast<std::size_t>(r)][b].values)
                << "rank " << r << " bucket " << b;
        }
    }
}

// ---------------------------------------------------------------------------
// Tag sub-bands: regression that overlapping collectives never alias tags
// ---------------------------------------------------------------------------

TEST(AsyncTags, HandleBandsAreDisjointAndAboveFreshBand) {
    comm::Cluster::run(2, NetworkModel::free(), [](comm::Communicator& c) {
        AsyncGtopkAllreduce a(c, make_local(c.rank(), 0, 1000, 8), 8);
        AsyncGtopkAllreduce b(c, make_local(c.rank(), 1, 1000, 8), 8);
        a.start();
        // A blocking collective issued BETWEEN async handles is a handle
        // too: it draws the next block from the same cursor, so it cannot
        // alias either neighbour's band.
        collectives::barrier(c);
        b.start();
        const int n = a.schedule().tag_count;
        EXPECT_EQ(a.tag_base(), comm::kAsyncTagBase);
        EXPECT_EQ(b.tag_base(),
                  a.tag_base() + n + collectives::barrier_schedule(2).tag_count);
        a.wait();
        b.wait();
    });
}

TEST(AsyncTags, AsyncBandWrapsWithoutTouchingFreshBand) {
    comm::Cluster::run(2, NetworkModel::free(), [](comm::Communicator& c) {
        // Park the async cursor just below the wrap limit: the next handle
        // must wrap to kAsyncTagBase (SPMD lockstep), never below it.
        c.set_async_tag_cursor_for_test(std::numeric_limits<int>::max() - 1);
        AsyncGtopkAllreduce h(c, make_local(c.rank(), 0, 1000, 8), 8);
        h.start();
        EXPECT_EQ(h.tag_base(), comm::kAsyncTagBase);
        h.wait();
        // A blocking collective continues from the wrapped cursor.
        std::vector<float> v(5, 1.0f);
        collectives::broadcast(c, v, 0);
        EXPECT_EQ(c.fresh_async_tags(1),
                  comm::kAsyncTagBase + h.schedule().tag_count +
                      collectives::broadcast_schedule(2, 0, 20).tag_count);
    });
}

// ---------------------------------------------------------------------------
// NIC timeline: modeled transfers never advance the clock; first-fit
// backfill keeps host pump order out of modeled contention
// ---------------------------------------------------------------------------

TEST(AsyncNicTimeline, SendsDoNotAdvanceClockAndBackfillGaps) {
    const auto net = NetworkModel::one_gbps_ethernet();
    comm::Cluster::run(2, net, [&](comm::Communicator& c) {
        if (c.rank() == 0) {
            const double t0 = c.clock().now_s();
            std::vector<std::byte> p1(1000), p2(1000), p3(1000);
            const double cost = net.transfer_time_s(1000);
            const double e1 = c.send_async(1, 7, std::move(p1), 0.0);
            EXPECT_DOUBLE_EQ(c.clock().now_s(), t0);  // clock untouched
            EXPECT_NEAR(e1, cost, 1e-12);
            // A far-future reservation...
            const double e2 = c.send_async(1, 8, std::move(p2), 10.0);
            EXPECT_NEAR(e2, 10.0 + cost, 1e-12);
            // ...must not delay a transfer whose data dependency allows it
            // to ride the gap right after the first transfer (host issue
            // order is NOT modeled NIC order).
            const double e3 = c.send_async(1, 9, std::move(p3), 0.0);
            EXPECT_NEAR(e3, 2 * cost, 1e-12);
            EXPECT_NEAR(c.nic_busy_until_s(), 10.0 + cost, 1e-12);
        } else {
            for (int tag : {7, 8, 9}) {
                std::optional<comm::Communicator::AsyncMsg> m;
                while (!(m = c.try_recv_async(0, tag))) {
                }
                EXPECT_EQ(m->payload.size(), 1000u);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Bucketer
// ---------------------------------------------------------------------------

TEST(Bucketer, DefaultKeepsOneBucketPerTensor) {
    const std::vector<std::size_t> offs{0, 100, 350, 360, 1000};
    const auto buckets = fuse_buckets(offs, 0);
    ASSERT_EQ(buckets.size(), 4u);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        EXPECT_EQ(buckets[i].begin, offs[i]);
        EXPECT_EQ(buckets[i].end, offs[i + 1]);
        EXPECT_EQ(buckets[i].priority, static_cast<int>(i));
        EXPECT_EQ(buckets[i].first_segment, static_cast<int>(i));
        EXPECT_EQ(buckets[i].last_segment, static_cast<int>(i));
    }
}

TEST(Bucketer, FusesBackwardOrderRunsToThreshold) {
    // 6 tensors of 100 floats = 400 bytes each; 1000-byte buckets fuse
    // three backward-order runs of >= 3 tensors... walking back-to-front:
    // {5,4,3} then {2,1,0}.
    const std::vector<std::size_t> offs{0, 100, 200, 300, 400, 500, 600};
    const auto buckets = fuse_buckets(offs, 1000);
    ASSERT_EQ(buckets.size(), 2u);
    // Returned in FORWARD order, contiguous, covering everything.
    EXPECT_EQ(buckets.front().begin, 0u);
    EXPECT_EQ(buckets.back().end, 600u);
    EXPECT_EQ(buckets[0].end, buckets[1].begin);
    EXPECT_EQ(buckets[0].priority, 0);  // front bucket drains first (P3)
    EXPECT_EQ(buckets[1].priority, 1);
    for (const GradBucket& b : buckets) {
        EXPECT_GE(b.size() * sizeof(float), 1000u);
    }
}

TEST(Bucketer, ReadyFractionsFollowBackwardSweep) {
    const std::vector<std::size_t> offs{0, 250, 1000};
    const auto buckets = fuse_buckets(offs, 0);
    const auto ready = train::bucket_ready_fractions(buckets, 1000);
    ASSERT_EQ(ready.size(), 2u);
    // Bucket 1 (back of the model) is ready first.
    EXPECT_DOUBLE_EQ(ready[0], 1.0);    // (1000 - 0) / 1000
    EXPECT_DOUBLE_EQ(ready[1], 0.75);   // (1000 - 250) / 1000
}

// ---------------------------------------------------------------------------
// Concurrent schedule checker
// ---------------------------------------------------------------------------

TEST(VerifyConcurrent, DisjointBandsPassAndOverlapIsCaught) {
    const int world = 4;
    const auto net = NetworkModel::one_gbps_ethernet();
    std::vector<collectives::Schedule> parts{
        collectives::gtopk_allreduce_schedule(world, 256),
        collectives::gtopk_allreduce_schedule(world, 256)};

    std::vector<int> bases{comm::kAsyncTagBase,
                           comm::kAsyncTagBase + parts[0].tag_count};
    const auto ok = analysis::verify_concurrent_schedules(parts, bases, &net);
    EXPECT_TRUE(ok.ok()) << ok.violations.front().detail;
    ASSERT_TRUE(ok.critical_path_s.has_value());
    EXPECT_GT(*ok.critical_path_s, 0.0);

    // Deliberately aliasing bands: the checker must name the overlap.
    std::vector<int> bad{comm::kAsyncTagBase, comm::kAsyncTagBase + 1};
    const auto overlap = analysis::verify_concurrent_schedules(parts, bad, &net);
    ASSERT_FALSE(overlap.ok());
    bool named = false;
    for (const auto& v : overlap.violations) {
        named = named || v.check == "band-overlap";
    }
    EXPECT_TRUE(named);

    // A base inside the user tag space is rejected outright.
    std::vector<int> low{0, parts[0].tag_count};
    EXPECT_FALSE(analysis::verify_concurrent_schedules(parts, low, &net).ok());
}

// ---------------------------------------------------------------------------
// Overlap model: channel parameterization
// ---------------------------------------------------------------------------

TEST(OverlapModelChannels, MoreChannelsNeverExposeMoreComm) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const std::vector<std::int64_t> segs{500'000, 2'000'000, 4'000'000,
                                         6'000'000, 2'200'000};
    const auto c1 = perfmodel::overlapped_iteration(net, 16, segs, 1e-3, 0.05,
                                                    0.1, /*channels=*/1);
    const auto c2 = perfmodel::overlapped_iteration(net, 16, segs, 1e-3, 0.05,
                                                    0.1, /*channels=*/2);
    EXPECT_LE(c2.exposed_comm_s, c1.exposed_comm_s + 1e-12);
    EXPECT_LE(c2.iteration_s, c1.iteration_s + 1e-12);
    EXPECT_DOUBLE_EQ(c1.total_comm_s, c2.total_comm_s);
}

}  // namespace
