// Robustness: the transport abstraction under adverse conditions — message
// reordering across tags, worker failures mid-collective, and corrupt wire
// payloads. The simulated cluster must fail loudly, never hang or corrupt.
//
// Reordering here runs on the production FaultInjectingTransport with a
// scheduled reorder_every_n plan: every 3rd message of each edge is parked
// and released out of cross-stream order while per-(source, tag) FIFO — the
// only ordering MPI (and our mailbox matching) guarantees — is preserved.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "collectives/collectives.hpp"
#include "comm/cluster.hpp"
#include "comm/tags.hpp"
#include "comm/fault_transport.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"
#include "p2p_handles.hpp"

namespace {

using namespace gtopk;
using namespace gtopk::collectives;
using comm::Communicator;
using comm::FaultInjectingTransport;
using comm::FaultPlan;
using comm::FaultRule;
using comm::InProcTransport;
using comm::NetworkModel;
using gtopk::comm::kTagTestData;

/// Park-and-release every 3rd message on every edge.
FaultPlan reorder_plan() {
    FaultRule rule;
    rule.reorder_every_n = 3;
    FaultPlan plan;
    plan.seed = 42;
    return plan.add(rule);
}

/// Run a worker fn over a transport; Cluster::run_on aborts on the first
/// rank failure and rethrows it, exactly like the in-proc entry point.
template <typename Fn>
void run_on(comm::Transport& transport, int /*world*/, Fn&& fn) {
    comm::Cluster::run_on(transport, NetworkModel::free(),
                          [&fn](Communicator& comm) { fn(comm); });
}

TEST(FaultTest, CollectivesSurviveCrossTagReordering) {
    FaultInjectingTransport transport(4, reorder_plan());
    run_on(transport, 4, [](Communicator& comm) {
        for (int round = 0; round < 10; ++round) {
            std::vector<float> data(16, static_cast<float>(comm.rank() + 1));
            allreduce_sum_ring(comm, data);
            for (float v : data) ASSERT_FLOAT_EQ(v, 10.0f);  // 1+2+3+4
            barrier(comm);
        }
    });
    // The plan must actually have exercised the reorder machinery.
    EXPECT_GT(transport.counts().reordered, 0u);
}

TEST(FaultTest, GtopkSurvivesCrossTagReordering) {
    FaultInjectingTransport transport(8, reorder_plan());
    std::vector<sparse::SparseGradient> results(8);
    run_on(transport, 8, [&](Communicator& comm) {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 1);
        std::vector<float> dense(256);
        for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
        const auto local = sparse::topk_select(dense, 10);
        for (int round = 0; round < 5; ++round) {
            const auto r = core::gtopk_allreduce(comm, local, 10);
            if (round == 0) results[static_cast<std::size_t>(comm.rank())] = r.global;
            ASSERT_EQ(r.global, results[static_cast<std::size_t>(comm.rank())]);
        }
    });
    for (int r = 1; r < 8; ++r) {
        EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
    }
}

TEST(FaultTest, PooledGtopkMatchesOwningUnderReordering) {
    // The pooled/zero-copy wire path must agree bit-for-bit with the
    // in-order fabric's result (which PooledGtopk.BitIdenticalToOwningPath
    // pins to the owning tree fold) even when the transport reorders
    // messages across tags, and the per-rank buffer pools must actually
    // recycle payloads (pool hits) rather than silently allocating fresh
    // ones.
    std::array<std::vector<sparse::SparseGradient>, 2> results;
    for (const bool reorder : {false, true}) {
        FaultInjectingTransport transport(8, reorder ? reorder_plan() : FaultPlan{});
        auto& out = results[reorder ? 1 : 0];
        out.resize(8);
        run_on(transport, 8, [&](Communicator& comm) {
            util::Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 1);
            std::vector<float> dense(512);
            for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
            const auto local = sparse::topk_select(dense, 16);
            core::GtopkWorkspace ws;
            const core::GtopkOptions options{.workspace = &ws};
            sparse::SparseGradient first;
            for (int round = 0; round < 6; ++round) {
                const auto r = core::gtopk_allreduce(comm, local, 16, options);
                if (round == 0) first = r.global;
                ASSERT_EQ(r.global, first);
            }
            out[static_cast<std::size_t>(comm.rank())] = first;
            if (comm.rank() == 0) {
                // Rounds 2+ must serve sends from recycled receive buffers.
                EXPECT_GT(comm.buffer_pool().stats().pool_hits, 0u);
            }
        });
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(FaultTest, WorkerFailureMidCollectiveUnblocksPeers) {
    // Rank 2 dies between the reduce and the broadcast; all other ranks are
    // blocked in recv and must be woken by the abort, and the failure must
    // surface to the caller.
    EXPECT_THROW(
        comm::Cluster::run(4, NetworkModel::free(),
                           [](Communicator& comm) {
                               std::vector<float> data(32, 1.0f);
                               allreduce_sum_ring(comm, data);
                               if (comm.rank() == 2) {
                                   throw std::runtime_error("injected crash");
                               }
                               // Everyone else proceeds into a barrier that
                               // can never complete.
                               barrier(comm);
                               barrier(comm);
                           }),
        std::runtime_error);
}

TEST(FaultTest, FirstErrorWins) {
    try {
        comm::Cluster::run(4, NetworkModel::free(), [](Communicator& comm) {
            if (comm.rank() == 1) throw std::runtime_error("rank1");
            barrier(comm);
            barrier(comm);
        });
        FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "rank1");
    }
}

TEST(FaultTest, CorruptSparsePayloadIsRejectedNotMisread) {
    // A peer sends garbage where a serialized SparseGradient is expected;
    // deserialize must throw rather than fabricate a gradient.
    EXPECT_THROW(
        comm::Cluster::run(2, NetworkModel::free(),
                           [](Communicator& comm) {
                               if (comm.rank() == 1) {
                                   std::vector<std::byte> junk(24, std::byte{0xAB});
                                   test::send_bytes(comm, 0, kTagTestData, junk);
                               } else {
                                   const auto bytes =
                                       test::recv_bytes(comm, 1, kTagTestData);
                                   (void)sparse::deserialize(bytes);
                               }
                           }),
        std::invalid_argument);
}

TEST(FaultTest, ShutdownIsIdempotent) {
    InProcTransport transport(2);
    transport.shutdown();
    transport.shutdown();  // second shutdown must be harmless
    EXPECT_THROW(transport.try_receive(0, 1, kTagTestData), comm::MailboxClosed);
}

TEST(FaultTest, RuleShadowedByAnEarlierRuleIsRejected) {
    // First match wins: a narrower rule after a catch-all never fires, so
    // the plan is refused; the reverse order lets both rules fire.
    FaultRule catch_all;
    catch_all.drop_prob = 0.1;
    FaultRule narrow;
    narrow.src = 0;
    narrow.tag = kTagTestData;
    narrow.corrupt_prob = 0.1;

    FaultPlan shadowed;
    shadowed.add(catch_all).add(narrow);
    EXPECT_THROW(FaultInjectingTransport(2, shadowed), std::invalid_argument);

    FaultPlan ordered;
    ordered.add(narrow).add(catch_all);
    EXPECT_NO_THROW(FaultInjectingTransport(2, ordered));
}

TEST(FaultTest, ManyConcurrentClustersDoNotInterfere) {
    // Cluster instances are fully isolated: run several concurrently and
    // verify each one's allreduce result.
    std::vector<std::thread> runners;
    std::atomic<int> failures{0};
    for (int c = 0; c < 4; ++c) {
        runners.emplace_back([&, c] {
            comm::Cluster::run(3, NetworkModel::free(), [&](Communicator& comm) {
                std::vector<float> v(8, static_cast<float>(c + 1));
                allreduce_sum_ring(comm, v);
                for (float x : v) {
                    if (x != 3.0f * static_cast<float>(c + 1)) failures.fetch_add(1);
                }
            });
        });
    }
    for (auto& t : runners) t.join();
    EXPECT_EQ(failures.load(), 0);
}

}  // namespace
