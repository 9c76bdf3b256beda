// Chaos harness: full short trainings and raw collectives under seeded
// fault plans. Every scenario must end in bit-identical convergence (when
// the faults are maskable) or a typed failure — never a hang, never silent
// divergence. Receive deadlines plus the ctest TIMEOUT on this suite
// enforce the no-hang half mechanically.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "chaos_common.hpp"
#include "collectives/collectives.hpp"
#include "core/aggregators.hpp"
#include "obs/trace.hpp"
#include "sparse/topk_select.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using chaos::ChaosEventLog;
using chaos::Outcome;
using chaos::TinyTrainScenario;
using comm::CommError;
using comm::CommErrorKind;
using comm::Communicator;
using comm::FaultInjectingTransport;
using comm::FaultPlan;
using comm::FaultRule;
using comm::NetworkModel;
using train::Algorithm;

::testing::Environment* const kChaosLogEnv =
    ::testing::AddGlobalTestEnvironment(new chaos::ChaosLogEnvironment);

// ---------------------------------------------------------------------------
// Decorator transparency

TEST(ChaosTest, FaultFreePlanIsPurePassthrough) {
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(Algorithm::GtopkSsgd);
    const auto chaos =
        scenario.run_chaos(Algorithm::GtopkSsgd, chaos::seeded_plan(chaos::base_seed()));
    ASSERT_EQ(chaos.outcome, Outcome::Completed) << chaos.error;
    EXPECT_EQ(chaos.result.final_params, clean.final_params);
    EXPECT_EQ(chaos.counts.injected(), 0u);
    EXPECT_GT(chaos.counts.delivered, 0u);
}

// ---------------------------------------------------------------------------
// (a) Maskable faults => bit-identical convergence

class MaskableSweep : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Algorithms, MaskableSweep,
                         ::testing::Values(Algorithm::GtopkSsgd, Algorithm::TopkSsgd,
                                           Algorithm::DenseSsgd,
                                           Algorithm::NaiveGtopkSsgd));

TEST_P(MaskableSweep, TrainingIsBitIdenticalToCleanRun) {
    const Algorithm algo = GetParam();
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(algo);
    const auto chaos = scenario.run_chaos(algo, chaos::maskable_plan(seed));
    ChaosEventLog::instance().record(
        std::string("maskable/") + train::algorithm_name(algo), seed, chaos.outcome,
        chaos.counts);
    ASSERT_EQ(chaos.outcome, Outcome::Completed) << chaos.error;
    // The plan must actually have fired...
    EXPECT_GT(chaos.counts.duplicated, 0u);
    EXPECT_GT(chaos.counts.reordered, 0u);
    EXPECT_GT(chaos.counts.delayed, 0u);
    EXPECT_EQ(chaos.counts.dropped, 0u);
    // ...and the training must not have noticed: identical parameters and
    // identical per-epoch losses, bit for bit.
    ASSERT_EQ(chaos.result.final_params, clean.final_params);
    ASSERT_EQ(chaos.result.epochs.size(), clean.epochs.size());
    for (std::size_t e = 0; e < clean.epochs.size(); ++e) {
        EXPECT_EQ(chaos.result.epochs[e].train_loss, clean.epochs[e].train_loss);
    }
}

// ---------------------------------------------------------------------------
// Determinism: same seed + same plan => bit-identical schedule and outcome

TEST(ChaosTest, SameSeedSamePlanIsBitReproducible) {
    const std::uint64_t seed = chaos::base_seed() + 7;
    TinyTrainScenario scenario(4);
    const auto a = scenario.run_chaos(Algorithm::GtopkSsgd, chaos::maskable_plan(seed));
    const auto b = scenario.run_chaos(Algorithm::GtopkSsgd, chaos::maskable_plan(seed));
    ASSERT_EQ(a.outcome, Outcome::Completed) << a.error;
    ASSERT_EQ(b.outcome, Outcome::Completed) << b.error;
    // Bit-identical fault schedule...
    EXPECT_EQ(a.counts.delivered, b.counts.delivered);
    EXPECT_EQ(a.counts.dropped, b.counts.dropped);
    EXPECT_EQ(a.counts.duplicated, b.counts.duplicated);
    EXPECT_EQ(a.counts.reordered, b.counts.reordered);
    EXPECT_EQ(a.counts.corrupted, b.counts.corrupted);
    EXPECT_EQ(a.counts.delayed, b.counts.delayed);
    // ...and bit-identical training outcome.
    EXPECT_EQ(a.result.final_params, b.result.final_params);
}

TEST(ChaosTest, DifferentSeedsProduceDifferentSchedules) {
    TinyTrainScenario scenario(4);
    const auto a = scenario.run_chaos(Algorithm::GtopkSsgd, chaos::maskable_plan(12345));
    const auto b = scenario.run_chaos(Algorithm::GtopkSsgd, chaos::maskable_plan(67890));
    ASSERT_EQ(a.outcome, Outcome::Completed) << a.error;
    ASSERT_EQ(b.outcome, Outcome::Completed) << b.error;
    EXPECT_TRUE(a.counts.duplicated != b.counts.duplicated ||
                a.counts.reordered != b.counts.reordered ||
                a.counts.delayed != b.counts.delayed);
}

// ---------------------------------------------------------------------------
// (b) Unmaskable faults => typed CommError, never a hang

TEST(ChaosTest, DroppedMessagesSurfaceTypedCommError) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    // Deterministic loss: every 5th message out of rank 1 vanishes; the
    // first loss happens within the first training iteration.
    const auto chaos = scenario.run_chaos(Algorithm::GtopkSsgd,
                                          chaos::drop_from(1, 5, seed),
                                          /*recv_timeout_s=*/0.25);
    ChaosEventLog::instance().record("drop_every_5_from_rank1", seed, chaos.outcome,
                                     chaos.counts);
    ASSERT_EQ(chaos.outcome, Outcome::CommFailure) << chaos.error;
    EXPECT_GT(chaos.counts.dropped, 0u);
    EXPECT_NE(chaos.error.find("recv timeout on rank"), std::string::npos)
        << chaos.error;
}

TEST(ChaosTest, RankKillMidTrainingSurfacesCommError) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    comm::FaultPlan plan = chaos::seeded_plan(seed);
    // Dies exactly at the step-5 iteration boundary (the step-scheduled
    // kill the recovery suite relies on to pin rollback points); without a
    // membership service the failure must stay fail-fast and typed.
    plan.kill_at_step(/*rank=*/1, /*step=*/5);
    const auto chaos = scenario.run_chaos(Algorithm::GtopkSsgd, plan,
                                          /*recv_timeout_s=*/0.25);
    ChaosEventLog::instance().record("kill_rank1_at_step5", seed, chaos.outcome,
                                     chaos.counts);
    ASSERT_EQ(chaos.outcome, Outcome::CommFailure) << chaos.error;
    EXPECT_GT(chaos.counts.killed_sends, 0u);
}

// ---------------------------------------------------------------------------
// Communicator timeout coverage on every collective (satellite): a rank
// whose traffic is blackholed must surface CommError naming rank, peer and
// tag on allreduce, allgather, broadcast and barrier alike.

struct CollectiveCase {
    const char* name;
    void (*fn)(Communicator&);
};
// Print the case by name: the default tuple printer shows pointer values,
// which change with every build and leak into the discovered ctest names.
void PrintTo(const CollectiveCase& c, std::ostream* os) { *os << c.name; }

void run_allreduce(Communicator& comm) {
    std::vector<float> v(32, 1.0f);
    collectives::allreduce_sum_ring(comm, v);
}
void run_allgather(Communicator& comm) {
    std::vector<float> mine(4, static_cast<float>(comm.rank()));
    (void)collectives::allgather<float>(comm, mine);
}
void run_broadcast(Communicator& comm) {
    std::vector<float> v(16, 2.0f);
    collectives::broadcast(comm, v, /*root=*/0);
}
void run_barrier(Communicator& comm) { collectives::barrier(comm); }

class CollectiveTimeout : public ::testing::TestWithParam<CollectiveCase> {};
INSTANTIATE_TEST_SUITE_P(
    All, CollectiveTimeout,
    ::testing::Values(CollectiveCase{"allreduce", &run_allreduce},
                      CollectiveCase{"allgather", &run_allgather},
                      CollectiveCase{"broadcast", &run_broadcast},
                      CollectiveCase{"barrier", &run_barrier}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(CollectiveTimeout, DropSurfacesCommErrorNamingRankPeerTag) {
    const auto& [name, fn] = GetParam();
    // Blackhole the ROOT's outbound traffic: rank 0 sends in every one of
    // these collectives (a non-root leaf might legitimately never be waited
    // on, e.g. in a broadcast tree), so some peer must always time out.
    FaultInjectingTransport transport(4, chaos::blackhole_from(0, chaos::base_seed()));
    try {
        comm::Cluster::run_on(transport, NetworkModel::free(),
                              [fn = fn](Communicator& comm) { fn(comm); },
                              /*tracer=*/nullptr, /*recv_timeout_s=*/0.2);
        FAIL() << name << ": expected CommError, collective completed";
    } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommErrorKind::RecvTimeout);
        EXPECT_GE(e.rank(), 0);
        EXPECT_LT(e.rank(), 4);
        EXPECT_GE(e.peer(), 0);  // the awaited peer is named, not a wildcard
        EXPECT_GE(e.tag(), 1'000'000);  // collectives use fresh_tags
        EXPECT_DOUBLE_EQ(e.timeout_s(), 0.2);
        const std::string what = e.what();
        EXPECT_NE(what.find("recv timeout on rank"), std::string::npos) << what;
        EXPECT_NE(what.find("peer"), std::string::npos) << what;
        EXPECT_NE(what.find("tag"), std::string::npos) << what;
    }
}

// ---------------------------------------------------------------------------
// Corruption: the validated wire boundary turns payload damage into a
// rejection or a still-consistent aggregate — never UB, never divergence
// between ranks (the merged result reaches everyone via root's broadcast).

TEST(ChaosTest, GtopkUnderCorruptionNeverDivergesSilently) {
    const std::uint64_t seed = chaos::base_seed();
    const int world = 4;
    constexpr int kRounds = 5;
    FaultInjectingTransport transport(world,
                                      chaos::corrupt_into(0, /*prob=*/0.5, seed));
    std::vector<std::array<sparse::SparseGradient, kRounds>> results(
        static_cast<std::size_t>(world));
    std::string what;
    const Outcome outcome = chaos::classify(
        [&] {
            comm::Cluster::run_on(
                transport, NetworkModel::free(),
                [&](Communicator& comm) {
                    util::Xoshiro256 rng(static_cast<std::uint64_t>(comm.rank()) + 1);
                    std::vector<float> dense(256);
                    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
                    const auto local = sparse::topk_select(dense, 12);
                    for (int round = 0; round < kRounds; ++round) {
                        results[static_cast<std::size_t>(comm.rank())]
                               [static_cast<std::size_t>(round)] =
                                   core::gtopk_allreduce(comm, local, 12).global;
                    }
                },
                /*tracer=*/nullptr, /*recv_timeout_s=*/2.0);
        },
        &what);
    ChaosEventLog::instance().record("corrupt_into_rank0", seed, outcome,
                                     transport.counts());
    EXPECT_GT(transport.counts().corrupted, 0u);
    if (outcome == Outcome::Completed) {
        // Corruption may have changed WHAT was aggregated (bit flips in
        // values that still validate) but never lets replicas disagree.
        for (int round = 0; round < kRounds; ++round) {
            for (int r = 1; r < world; ++r) {
                ASSERT_EQ(results[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(round)],
                          results[0][static_cast<std::size_t>(round)])
                    << "silent divergence at round " << round << " rank " << r;
            }
        }
    } else {
        // The only sanctioned failures are a wire rejection or a typed
        // comm error (e.g. a corrupt header tripping a size guard).
        EXPECT_TRUE(outcome == Outcome::WireRejected ||
                    outcome == Outcome::CommFailure ||
                    outcome == Outcome::OtherError)
            << what;
    }
}

// ---------------------------------------------------------------------------
// Fault events flow through the observability layer

TEST(ChaosTest, FaultEventsAreCountedInMetrics) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    obs::Tracer tracer(4);
    const auto chaos = scenario.run_chaos(Algorithm::GtopkSsgd,
                                          chaos::maskable_plan(seed),
                                          /*recv_timeout_s=*/5.0, &tracer);
    ASSERT_EQ(chaos.outcome, Outcome::Completed) << chaos.error;
    const obs::MetricsRegistry& m = tracer.metrics();
    const obs::Counter* dup = m.find_counter("fault.duplicated");
    const obs::Counter* reord = m.find_counter("fault.reordered");
    const obs::Counter* delay = m.find_counter("fault.delayed");
    ASSERT_NE(dup, nullptr);
    ASSERT_NE(reord, nullptr);
    ASSERT_NE(delay, nullptr);
    EXPECT_EQ(dup->value(), chaos.counts.duplicated);
    EXPECT_EQ(reord->value(), chaos.counts.reordered);
    EXPECT_EQ(delay->value(), chaos.counts.delayed);
}

// ---------------------------------------------------------------------------
// The sweep: plans x seeds; every cell completes bit-identically or fails
// with a typed error. This is the "as many scenarios as you can imagine"
// lattice — extend by adding plans.

TEST(ChaosTest, PlanSweepNeverHangsAndClassifiesCleanly) {
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(Algorithm::GtopkSsgd);
    for (std::uint64_t s = 0; s < 3; ++s) {
        const std::uint64_t seed = chaos::base_seed() + s;
        struct NamedPlan {
            const char* name;
            comm::FaultPlan plan;
            bool maskable;
        };
        const NamedPlan plans[] = {
            {"maskable", chaos::maskable_plan(seed), true},
            {"drop", chaos::drop_from(static_cast<int>(seed % 4), 7, seed), false},
            {"kill", chaos::seeded_plan(seed).kill(static_cast<int>(seed % 3) + 1,
                                                   8 + 2 * (seed % 4)),
             false},
            {"corrupt", chaos::corrupt_into(static_cast<int>(seed % 4), 0.3, seed),
             false},
        };
        for (const NamedPlan& np : plans) {
            const auto chaos =
                scenario.run_chaos(Algorithm::GtopkSsgd, np.plan,
                                   /*recv_timeout_s=*/np.maskable ? 5.0 : 0.25);
            ChaosEventLog::instance().record(std::string("sweep/") + np.name, seed,
                                             chaos.outcome, chaos.counts);
            if (np.maskable) {
                ASSERT_EQ(chaos.outcome, Outcome::Completed)
                    << np.name << " seed " << seed << ": " << chaos.error;
                EXPECT_EQ(chaos.result.final_params, clean.final_params)
                    << np.name << " seed " << seed;
            } else if (chaos.outcome == Outcome::Completed) {
                // A corruption plan may luckily stay maskable (e.g. flips
                // confined to already-irrelevant bytes keep validating);
                // drops and kills never complete.
                EXPECT_STREQ(np.name, "corrupt") << "seed " << seed;
            } else {
                EXPECT_TRUE(chaos.outcome == Outcome::CommFailure ||
                            chaos.outcome == Outcome::WireRejected ||
                            chaos.outcome == Outcome::OtherError)
                    << np.name << " seed " << seed << ": " << chaos.error;
            }
        }
    }
}

}  // namespace
