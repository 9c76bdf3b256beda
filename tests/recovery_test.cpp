// Self-healing runtime tests (DESIGN.md §12): the reliable delivery layer
// must mask probabilistic drop/corrupt plans bit-identically, and the
// membership + checkpoint + regroup machinery must carry a training run
// through a mid-run rank kill to a converged, replica-consistent finish on
// the survivor world.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "chaos_common.hpp"
#include "comm/membership.hpp"
#include "comm/recording_transport.hpp"
#include "comm/reliable_transport.hpp"
#include "comm/tags.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_select.hpp"
#include "train/checkpoint.hpp"
#include "util/rng.hpp"
#include "p2p_handles.hpp"

namespace {

using namespace gtopk;
using chaos::ChaosEventLog;
using chaos::Outcome;
using chaos::TinyTrainScenario;
using comm::FaultInjectingTransport;
using comm::FaultPlan;
using comm::FaultRule;
using comm::MembershipConfig;
using comm::MembershipService;
using comm::MembershipView;
using comm::ReliableTransport;
using train::Algorithm;

::testing::Environment* const kRecoveryLogEnv =
    ::testing::AddGlobalTestEnvironment(new chaos::ChaosLogEnvironment);

/// ~10% loss on every edge plus payload corruption — unmaskable for the
/// bare fault transport (chaos_test proves drops surface CommError), fully
/// maskable once ReliableTransport sits on top. One rule: the first
/// matching rule wins, so a second catch-all rule would never fire.
FaultPlan lossy_plan(std::uint64_t seed) {
    FaultRule lossy;
    lossy.drop_prob = 0.10;
    lossy.corrupt_prob = 0.05;
    return chaos::seeded_plan(seed).add(lossy);
}

// ---------------------------------------------------------------------------
// Reliable delivery: drops and corruption become invisible

class ReliableSweep : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Algorithms, ReliableSweep,
                         ::testing::Values(Algorithm::GtopkSsgd, Algorithm::TopkSsgd,
                                           Algorithm::DenseSsgd,
                                           Algorithm::NaiveGtopkSsgd));

TEST_P(ReliableSweep, RetransmitMasksDropAndCorruptionBitIdentically) {
    const Algorithm algo = GetParam();
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(algo);

    ReliableTransport reliable(
        std::make_unique<FaultInjectingTransport>(4, lossy_plan(seed)));
    auto& faulty = static_cast<FaultInjectingTransport&>(reliable.inner());
    train::TrainConfig cfg = scenario.config(algo);
    cfg.transport = &reliable;
    cfg.recv_timeout_s = 10.0;
    std::string error;
    train::TrainResult result;
    const Outcome outcome =
        chaos::classify([&] { result = scenario.run(cfg); }, &error);
    ChaosEventLog::instance().record(
        std::string("reliable_lossy/") + train::algorithm_name(algo), seed,
        outcome, faulty.counts());

    ASSERT_EQ(outcome, Outcome::Completed) << error;
    // The plan actually destroyed traffic...
    EXPECT_GT(faulty.counts().dropped + faulty.counts().corrupted, 0u);
    // ...the reliable layer recovered every loss...
    const comm::ReliableCounts rc = reliable.counts();
    EXPECT_GT(rc.retransmits, 0u);
    // ...and the training run never noticed: parameters and per-epoch
    // losses equal the fault-free run bit for bit.
    ASSERT_EQ(result.final_params, clean.final_params);
    ASSERT_EQ(result.epochs.size(), clean.epochs.size());
    for (std::size_t e = 0; e < clean.epochs.size(); ++e) {
        EXPECT_EQ(result.epochs[e].train_loss, clean.epochs[e].train_loss);
    }
}

TEST(RecoveryTest, ReliableOverCleanFabricIsPurePassthrough) {
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(Algorithm::GtopkSsgd);
    ReliableTransport reliable(std::make_unique<comm::InProcTransport>(4));
    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.transport = &reliable;
    const auto result = scenario.run(cfg);
    EXPECT_EQ(result.final_params, clean.final_params);
    const comm::ReliableCounts rc = reliable.counts();
    EXPECT_GT(rc.sent, 0u);
    EXPECT_EQ(rc.corrupt_dropped, 0u);
    // A very slow receiver (e.g. under TSan) may fire its backoff while a
    // message is still in flight and recover it preemptively; the original
    // then arrives as a duplicate. Exactly-once holds regardless: every
    // spurious recovery is matched by exactly one dedup.
    EXPECT_EQ(rc.retransmits, rc.dup_dropped);
}

// ---------------------------------------------------------------------------
// Elastic regroup: a mid-run rank kill shrinks the world and finishes

struct ElasticRun {
    Outcome outcome = Outcome::Completed;
    std::string error;
    train::TrainResult result;
    comm::FaultCounts counts;
};

/// Run `plan` (usually a mid-run kill) under membership + checkpoints;
/// optionally stack the reliable layer under the membership service.
/// `patch` tweaks the train config before the run (momentum mode etc.).
ElasticRun run_elastic(const TinyTrainScenario& scenario, Algorithm algo,
                       FaultPlan plan, bool reliable_layer,
                       const std::function<void(train::TrainConfig&)>& patch = {}) {
    std::unique_ptr<FaultInjectingTransport> faulty_owner;
    std::unique_ptr<ReliableTransport> reliable_owner;
    FaultInjectingTransport* faulty = nullptr;
    comm::Transport* top = nullptr;
    if (reliable_layer) {
        reliable_owner = std::make_unique<ReliableTransport>(
            std::make_unique<FaultInjectingTransport>(scenario.world, plan));
        faulty = static_cast<FaultInjectingTransport*>(&reliable_owner->inner());
        top = reliable_owner.get();
    } else {
        faulty_owner = std::make_unique<FaultInjectingTransport>(scenario.world, plan);
        faulty = faulty_owner.get();
        top = faulty_owner.get();
    }
    MembershipService membership(*top);
    train::TrainConfig cfg = scenario.config(algo);
    cfg.transport = top;
    cfg.membership = &membership;
    cfg.recv_timeout_s = 0.25;
    cfg.checkpoint_every = 4;
    if (patch) patch(cfg);
    ElasticRun out;
    out.outcome = chaos::classify([&] { out.result = scenario.run(cfg); }, &out.error);
    out.counts = faulty->counts();
    return out;
}

TEST(RecoveryTest, KillOneRankRegroupsAndConvergesOnSurvivors) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    FaultPlan plan = chaos::seeded_plan(seed);
    plan.kill_at_step(/*rank=*/3, /*step=*/9);  // mid second epoch
    const ElasticRun run =
        run_elastic(scenario, Algorithm::GtopkSsgd, plan, false);
    ChaosEventLog::instance().record("elastic_kill_rank3_step9", seed, run.outcome,
                                     run.counts);
    ASSERT_EQ(run.outcome, Outcome::Completed) << run.error;

    // The survivor world is exactly the other three ranks...
    EXPECT_EQ(run.result.final_members, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(run.result.final_membership_epoch, 1);
    EXPECT_EQ(run.result.regroups, 1);
    // ...all holding bit-identical replicas (the §12 consistency contract).
    ASSERT_EQ(run.result.survivor_params.size(), 3u);
    for (std::size_t i = 1; i < run.result.survivor_params.size(); ++i) {
        ASSERT_EQ(run.result.survivor_params[i], run.result.survivor_params[0])
            << "survivor replica divergence at member index " << i;
    }
    // The run actually trained: all epochs reported and loss improved.
    ASSERT_EQ(run.result.epochs.size(), 2u);
    EXPECT_LT(run.result.epochs.back().train_loss,
              run.result.epochs.front().train_loss);
}

TEST(RecoveryTest, KillPlusPacketLossWithReliableLayerStillRecovers) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    FaultPlan plan = lossy_plan(seed);
    plan.kill_at_step(/*rank=*/2, /*step=*/6);
    const ElasticRun run =
        run_elastic(scenario, Algorithm::GtopkSsgd, plan, true);
    ChaosEventLog::instance().record("elastic_kill_plus_loss", seed, run.outcome,
                                     run.counts);
    ASSERT_EQ(run.outcome, Outcome::Completed) << run.error;
    // Packet loss is masked by retransmission, yet the kill still surfaced
    // through the reliable layer (dead buffers are not recoverable) and the
    // run finished on the survivor world.
    EXPECT_EQ(run.result.final_members, (std::vector<int>{0, 1, 3}));
    ASSERT_EQ(run.result.survivor_params.size(), 3u);
    for (std::size_t i = 1; i < run.result.survivor_params.size(); ++i) {
        ASSERT_EQ(run.result.survivor_params[i], run.result.survivor_params[0]);
    }
}

TEST(RecoveryTest, MembershipLeavesTheLossyFaultScheduleUntouched) {
    // Same (seed, plan) => same per-edge fault schedule, membership attached
    // or not: with no failure the service sends nothing, so the fault layer
    // draws its drops and corruptions over exactly the training traffic.
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    const auto lossy_run = [&](bool with_membership) {
        return run_elastic(scenario, Algorithm::GtopkSsgd, lossy_plan(seed), true,
                           [with_membership](train::TrainConfig& cfg) {
                               // Far from a deadline: a spurious regroup would
                               // add traffic of its own.
                               cfg.recv_timeout_s = 1.5;
                               if (!with_membership) cfg.membership = nullptr;
                           });
    };
    const ElasticRun bare = lossy_run(false);
    const ElasticRun watched = lossy_run(true);
    ChaosEventLog::instance().record("lossy_with_membership", seed, watched.outcome,
                                     watched.counts);
    ASSERT_EQ(bare.outcome, Outcome::Completed) << bare.error;
    ASSERT_EQ(watched.outcome, Outcome::Completed) << watched.error;
    EXPECT_EQ(watched.result.regroups, 0);
    EXPECT_GT(bare.counts.dropped, 0u);
    EXPECT_GT(bare.counts.corrupted, 0u);
    EXPECT_EQ(watched.counts.delivered, bare.counts.delivered);
    EXPECT_EQ(watched.counts.dropped, bare.counts.dropped);
    EXPECT_EQ(watched.counts.corrupted, bare.counts.corrupted);
    EXPECT_EQ(watched.counts.injected(), bare.counts.injected());
    EXPECT_EQ(watched.result.final_params, bare.result.final_params);
}

TEST(RecoveryTest, LocalMomentumRegroupKeepsRankLocalVelocity) {
    // DGC-style LocalCorrection velocity is built from each rank's OWN
    // gradient stream — rank-local like the residual — so the post-regroup
    // resync must restore it from the rank's own snapshot (broadcasting
    // rank 0's would silently overwrite every survivor's momentum
    // correction). This pins the LocalCorrection resync path end to end:
    // the run completes and survivors stay bit-identical.
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    FaultPlan plan = chaos::seeded_plan(seed);
    plan.kill_at_step(/*rank=*/3, /*step=*/9);
    const ElasticRun run = run_elastic(
        scenario, Algorithm::GtopkSsgd, plan, false,
        [](train::TrainConfig& cfg) {
            cfg.momentum_mode = train::TrainConfig::MomentumMode::LocalCorrection;
        });
    ChaosEventLog::instance().record("elastic_kill_local_momentum", seed,
                                     run.outcome, run.counts);
    ASSERT_EQ(run.outcome, Outcome::Completed) << run.error;
    EXPECT_EQ(run.result.final_members, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(run.result.regroups, 1);
    ASSERT_EQ(run.result.survivor_params.size(), 3u);
    for (std::size_t i = 1; i < run.result.survivor_params.size(); ++i) {
        ASSERT_EQ(run.result.survivor_params[i], run.result.survivor_params[0])
            << "survivor replica divergence at member index " << i;
    }
    ASSERT_EQ(run.result.epochs.size(), 2u);
}

TEST(RecoveryTest, ElasticSeedSweepSurvivorsAlwaysConsistent) {
    TinyTrainScenario scenario(4);
    for (std::uint64_t s = 0; s < 3; ++s) {
        const std::uint64_t seed = chaos::base_seed() + s;
        FaultPlan plan = chaos::seeded_plan(seed);
        const int victim = static_cast<int>(seed % 4);
        const std::int64_t kill_step = 3 + static_cast<std::int64_t>(seed % 10);
        plan.kill_at_step(victim, kill_step);
        const ElasticRun run =
            run_elastic(scenario, Algorithm::GtopkSsgd, plan, false);
        ChaosEventLog::instance().record("elastic_sweep", seed, run.outcome,
                                         run.counts);
        ASSERT_EQ(run.outcome, Outcome::Completed)
            << "seed " << seed << " victim " << victim << ": " << run.error;
        ASSERT_EQ(run.result.final_members.size(), 3u) << "seed " << seed;
        for (int member : run.result.final_members) {
            EXPECT_NE(member, victim) << "seed " << seed;
        }
        for (std::size_t i = 1; i < run.result.survivor_params.size(); ++i) {
            ASSERT_EQ(run.result.survivor_params[i], run.result.survivor_params[0])
                << "seed " << seed << " member index " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store: cadence, ring bound, rollback lookup

TEST(RecoveryTest, CheckpointRoundTripIsExact) {
    train::CheckpointStore store(/*interval=*/4, /*keep=*/4);
    EXPECT_TRUE(store.due(0));
    EXPECT_FALSE(store.due(3));
    EXPECT_TRUE(store.due(8));
    EXPECT_EQ(store.latest_step(), -1);

    for (std::int64_t step : {0, 4, 8, 12}) {
        train::Checkpoint ck;
        ck.step = step;
        ck.params = {static_cast<float>(step), 1.5f};
        ck.velocity = {static_cast<float>(step) * 0.5f};
        ck.residual = {static_cast<float>(step) * 0.25f};
        store.save(std::move(ck));
    }
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.latest_step(), 12);

    // Exact-step lookup returns the snapshot bit for bit.
    const auto at8 = store.at(8);
    ASSERT_TRUE(at8.has_value());
    EXPECT_EQ(at8->params, (std::vector<float>{8.0f, 1.5f}));
    EXPECT_EQ(at8->velocity, (std::vector<float>{4.0f}));
    EXPECT_EQ(at8->residual, (std::vector<float>{2.0f}));

    // latest_at_or_before picks the newest not-newer snapshot.
    EXPECT_EQ(store.latest_at_or_before(11)->step, 8);
    EXPECT_EQ(store.latest_at_or_before(12)->step, 12);

    // The ring drops the oldest beyond `keep`...
    train::Checkpoint ck16;
    ck16.step = 16;
    store.save(std::move(ck16));
    EXPECT_EQ(store.size(), 4u);
    EXPECT_FALSE(store.at(0).has_value());
    // ...and replayed steps never re-save (rollback does not rewrite history):
    // the step-8 snapshot keeps its original contents.
    train::Checkpoint replay;
    replay.step = 8;
    replay.params = {999.0f};
    store.save(std::move(replay));
    EXPECT_EQ(store.latest_step(), 16);
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.at(8)->params, (std::vector<float>{8.0f, 1.5f}));
}

TEST(RecoveryTest, CheckpointTruncateDropsAbandonedTimeline) {
    // A rollback rewinds to the newest snapshot ALL survivors hold;
    // snapshots newer than that were taken on the pre-failure world and
    // the survivor-world replay diverges from them. truncate_after prunes
    // that abandoned timeline so a second failure mid-replay can never
    // pick a stale snapshot ahead of current progress.
    train::CheckpointStore store(/*interval=*/4, /*keep=*/4);
    for (std::int64_t step : {0, 4, 8, 12}) {
        train::Checkpoint ck;
        ck.step = step;
        ck.params = {static_cast<float>(step)};
        store.save(std::move(ck));
    }
    store.truncate_after(4);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.latest_step(), 4);
    EXPECT_FALSE(store.at(8).has_value());
    EXPECT_FALSE(store.at(12).has_value());
    // The replay re-saves the survivor timeline: the rollback step itself
    // stays a no-op, steps beyond it land as fresh snapshots.
    train::Checkpoint replay4;
    replay4.step = 4;
    replay4.params = {999.0f};
    store.save(std::move(replay4));
    EXPECT_EQ(store.at(4)->params, (std::vector<float>{4.0f}));
    train::Checkpoint fresh8;
    fresh8.step = 8;
    fresh8.params = {80.0f};
    store.save(std::move(fresh8));
    EXPECT_EQ(store.latest_step(), 8);
    EXPECT_EQ(store.at(8)->params, (std::vector<float>{80.0f}));
}

// ---------------------------------------------------------------------------
// Epoch discipline: stale traffic is rejected deterministically

TEST(RecoveryTest, StaleEpochMessagesAreRejectedAtTheMailbox) {
    comm::InProcTransport transport(2);
    comm::Message stale;
    stale.source = 1;
    stale.tag = comm::kAsyncTagBase + 5;
    stale.epoch = 0;
    stale.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
    transport.deliver(0, stale);  // queued before the regroup

    transport.begin_epoch(/*rank=*/0, /*epoch=*/1);
    // The queued epoch-0 message is purged; a fresh attempt to deliver more
    // epoch-0 traffic (the straggler) is rejected at push.
    transport.deliver(0, stale);
    EXPECT_FALSE(transport.try_receive(0, 1, stale.tag).has_value());
    EXPECT_EQ(transport.mailbox(0).stale_rejected(), 2u);

    // Current-epoch traffic flows normally.
    comm::Message fresh = stale;
    fresh.epoch = 1;
    transport.deliver(0, fresh);
    const auto got = transport.try_receive(0, 1, stale.tag);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, fresh.payload);
}

TEST(RecoveryTest, ReliableLayerSkipsStaleEpochsOnRecovery) {
    // A retransmit buffer holding old-epoch messages must not resurrect
    // them after begin_epoch: recovery advances past them (stale_skipped)
    // instead of delivering them into the new world.
    ReliableTransport reliable(std::make_unique<comm::InProcTransport>(2));
    comm::Message msg;
    msg.source = 1;
    msg.tag = comm::kAsyncTagBase + 9;
    msg.epoch = 0;
    msg.payload = {std::byte{42}};
    reliable.deliver(0, msg);
    reliable.begin_epoch(/*rank=*/0, /*epoch=*/1);
    EXPECT_FALSE(reliable.try_receive(0, 1, msg.tag).has_value());

    msg.epoch = 1;
    msg.payload = {std::byte{43}};
    reliable.deliver(0, msg);
    const auto got = reliable.receive_for(0, 1, msg.tag, 1.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, std::vector<std::byte>{std::byte{43}});
}

// ---------------------------------------------------------------------------
// Membership agreement: regroup rounds

TEST(RecoveryTest, RegroupProducesIdenticalViewsOnAllSurvivors) {
    FaultInjectingTransport transport(4, FaultPlan{});
    MembershipService membership(transport);
    transport.kill_rank(2);
    MembershipView views[3];
    std::thread t0([&] { views[0] = membership.regroup(0); });
    std::thread t1([&] { views[1] = membership.regroup(1); });
    std::thread t3([&] { views[2] = membership.regroup(3); });
    t0.join();
    t1.join();
    t3.join();
    for (const MembershipView& v : views) {
        EXPECT_EQ(v.epoch, 1);
        EXPECT_EQ(v.members, (std::vector<int>{0, 1, 3}));
    }
    EXPECT_EQ(membership.epoch(0), 1);
    EXPECT_FALSE(membership.alive(2));
    EXPECT_TRUE(membership.alive(0));
}

TEST(RecoveryTest, RegroupWithoutMajorityQuorumAborts) {
    // One joiner out of three live members is a minority: grace expiry
    // must abort the round, never finalize a view the majority is not in.
    comm::InProcTransport transport(3);
    MembershipConfig cfg;
    cfg.join_grace_s = 0.05;
    MembershipService membership(transport, cfg);
    EXPECT_THROW(membership.regroup(0), std::runtime_error);
    EXPECT_EQ(membership.epoch(0), 0);  // nothing was finalized
}

TEST(RecoveryTest, MajorityFinalizesAndExcludedStragglerCannotRejoin) {
    FaultInjectingTransport transport(3, FaultPlan{});
    MembershipConfig cfg;
    cfg.join_grace_s = 0.1;
    MembershipService membership(transport, cfg);
    // Ranks 0 and 1 join; rank 2 — live but stuck — never does. The
    // majority (2 of 3) finalizes at grace expiry without it.
    MembershipView v0, v1;
    std::thread t0([&] { v0 = membership.regroup(0); });
    std::thread t1([&] { v1 = membership.regroup(1); });
    t0.join();
    t1.join();
    EXPECT_EQ(v0.epoch, 1);
    EXPECT_EQ(v0.members, (std::vector<int>{0, 1}));
    EXPECT_EQ(v1.epoch, v0.epoch);
    EXPECT_EQ(v1.members, v0.members);
    // The voted-out straggler cannot start a round of its own — the hole
    // that would let it finalize a singleton view with a higher epoch and
    // train solo past every survivor's epoch floor. The leader's VIEW told
    // it so: it holds the majority's view, which does not list it.
    EXPECT_THROW(membership.regroup(2), std::invalid_argument);
    EXPECT_EQ(membership.epoch(2), 1);
    EXPECT_EQ(membership.current(2).members, v0.members);
}

TEST(RecoveryTest, TwoRankDeathDuringInProgressRegroupFinalizesSurvivors) {
    // Ranks 0 and 1 enter a regroup round that CANNOT finalize yet (2 of 4
    // live is not a strict majority); ranks 2 and 3 then die mid-round.
    // The leader re-evaluates on every spin: once the live set shrinks to
    // exactly the joiner set, the fast path finalizes without waiting out
    // the grace window. Pinned behavior for the FSM extraction —
    // membership_evaluate drives the same verdicts the inline logic did.
    FaultInjectingTransport transport(5, FaultPlan{});
    MembershipService membership(transport);
    transport.kill_rank(4);  // down to live {0,1,2,3} before the round starts
    MembershipView v0, v1;
    std::thread t0([&] { v0 = membership.regroup(0); });
    std::thread t1([&] { v1 = membership.regroup(1); });
    // Let both joiners reach the in-round wait, then kill two ranks while
    // the round is in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(membership.epoch(0), 0);  // round still open: no quorum yet
    transport.kill_rank(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    transport.kill_rank(3);
    t0.join();
    t1.join();
    EXPECT_EQ(v0.epoch, 1);
    EXPECT_EQ(v0.members, (std::vector<int>{0, 1}));
    EXPECT_EQ(v1.epoch, v0.epoch);
    EXPECT_EQ(v1.members, v0.members);
    EXPECT_EQ(membership.epoch(0), 1);
}

TEST(RecoveryTest, JoinerArrivingInGraceWindowOfDeathRoundIsIncluded) {
    // A death opens a regroup round; a live straggler joins the SAME round
    // inside the grace window. It must land in the finalized view — the
    // fast path completes the instant the last live member joins, and all
    // three observers agree. Pinned behavior for the FSM extraction.
    FaultInjectingTransport transport(4, FaultPlan{});
    MembershipConfig cfg;
    cfg.join_grace_s = 5.0;  // generous: the test must finish via fast path
    MembershipService membership(transport, cfg);
    transport.kill_rank(3);
    MembershipView v0, v1, v2;
    std::thread t0([&] { v0 = membership.regroup(0); });
    std::thread t1([&] { v1 = membership.regroup(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(membership.epoch(0), 0);  // waiting on the straggler
    std::thread t2([&] { v2 = membership.regroup(2); });
    t0.join();
    t1.join();
    t2.join();
    for (const MembershipView* v : {&v0, &v1, &v2}) {
        EXPECT_EQ(v->epoch, 1);
        EXPECT_EQ(v->members, (std::vector<int>{0, 1, 2}));
    }
    EXPECT_EQ(membership.epoch(0), 1);
}

TEST(RecoveryTest, LeaderKilledMidRoundSurvivorsReelectAndAgree) {
    // Rank 0 leads a round that waits on a stuck rank 4 (4 of 5 joined
    // is a majority, but grace has not expired), then dies inside it. The
    // followers re-elect rank 1, re-send their JOINs to it, and all three
    // survivors return one view once rank 1's own grace window expires.
    FaultInjectingTransport transport(5, FaultPlan{});
    MembershipConfig cfg;
    cfg.join_grace_s = 0.5;
    MembershipService membership(transport, cfg);
    MembershipView views[3];
    std::thread t0([&] {
        EXPECT_THROW(membership.regroup(0), comm::CommError);  // its own death
    });
    std::vector<std::thread> followers;
    for (int r = 1; r <= 3; ++r) {
        followers.emplace_back([&, r] { views[r - 1] = membership.regroup(r); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(membership.epoch(1), 0);  // the leader is still waiting
    transport.kill_rank(0);
    t0.join();
    for (auto& t : followers) t.join();
    for (const MembershipView& v : views) {
        EXPECT_EQ(v.epoch, 1);
        EXPECT_EQ(v.members, (std::vector<int>{1, 2, 3}));
    }
}

TEST(RecoveryTest, LeaderKilledMidBroadcastNeverSplitsTheView) {
    // The leader finalizes {0,1,2,3} and dies on its third send: ranks 1
    // and 2 hold its VIEW, rank 3 does not. Rank 1, now the lowest live
    // rank, must adopt the VIEW waiting in its mailbox rather than lead a
    // second round of the same epoch — the split-brain protocheck found
    // when followers elected before polling their VIEW frames.
    FaultPlan plan;
    plan.kill(0, 2);  // sends 1 and 2 are its VIEWs to ranks 1 and 2
    FaultInjectingTransport transport(4, plan);
    MembershipConfig cfg;
    cfg.join_grace_s = 0.3;
    MembershipService membership(transport, cfg);
    std::optional<MembershipView> views[4];
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; ++r) {
        threads.emplace_back([&, r] {
            try {
                views[r] = membership.regroup(r);
            } catch (const std::exception&) {
                // Rank 3 gets no VIEW and no second round gives it one.
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_FALSE(transport.rank_alive(0));
    ASSERT_TRUE(views[1].has_value());
    ASSERT_TRUE(views[2].has_value());
    EXPECT_EQ(views[1]->epoch, 1);
    EXPECT_EQ(views[1]->members, (std::vector<int>{0, 1, 2, 3}));
    for (int r = 2; r < 4; ++r) {
        if (!views[r]) continue;
        EXPECT_EQ(views[r]->epoch, views[1]->epoch) << "rank " << r;
        EXPECT_EQ(views[r]->members, views[1]->members) << "rank " << r;
    }
}

TEST(RecoveryTest, VotedOutStragglerCannotLeadADeadLeadersClosedRound) {
    // protocheck's counterexample against followers that elected before
    // polling their VIEW frames and leaders that told only the new members:
    // rank 0 finalizes {0,2} at grace expiry without the stuck rank 1,
    // sends its VIEW and dies. Rank 1, now the lowest live rank, would
    // lead a second epoch-1 round that rank 2's JOIN completes as {1,2}.
    // The VIEW goes to every live member of the old view, so rank 1 learns
    // it was voted out instead.
    FaultInjectingTransport transport(3, FaultPlan{});
    MembershipConfig cfg;
    cfg.join_grace_s = 0.2;
    MembershipService membership(transport, cfg);
    MembershipView v0, v2;
    std::thread t0([&] { v0 = membership.regroup(0); });
    std::thread t2([&] { v2 = membership.regroup(2); });
    t0.join();
    t2.join();
    EXPECT_EQ(v0.members, (std::vector<int>{0, 2}));
    EXPECT_EQ(v2.epoch, v0.epoch);
    EXPECT_EQ(v2.members, v0.members);
    transport.kill_rank(0);
    EXPECT_THROW(membership.regroup(1), std::invalid_argument);
    EXPECT_EQ(membership.current(1).epoch, 1);
    EXPECT_EQ(membership.current(1).members, v0.members);
}

TEST(MembershipTest, InProcessRegroupExchangesJoinAndViewFrames) {
    // One regroup protocol on every fabric: in-process too, the round is
    // JOIN frames to the leader (rank 0) and VIEW frames back from it.
    comm::RecordingTransport transport(3);
    MembershipService membership(transport);
    MembershipView views[3];
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
        threads.emplace_back([&, r] { views[r] = membership.regroup(r); });
    }
    for (auto& t : threads) t.join();
    for (const MembershipView& v : views) {
        EXPECT_EQ(v.epoch, 1);
        EXPECT_EQ(v.members, (std::vector<int>{0, 1, 2}));
    }
    int joins = 0;
    int view_frames = 0;
    for (const comm::RecordedMsg& m : transport.log()) {
        if (m.tag == comm::kTagMembershipJoin) {
            ++joins;
            EXPECT_EQ(m.dst, 0);
        } else if (m.tag == comm::kTagMembershipView) {
            ++view_frames;
            EXPECT_EQ(m.src, 0);
        }
    }
    EXPECT_GE(joins, 2);
    EXPECT_EQ(view_frames, 2);
}

TEST(RecoveryTest, ElasticModeRequiresDeadlineBelowJoinGrace) {
    // The receive-deadline cascade is what routes every survivor into the
    // regroup round; it must fire before the round's grace window can
    // expire, or stragglers get voted out of a healthy world.
    TinyTrainScenario scenario(4);
    comm::InProcTransport transport(4);
    MembershipService membership(transport);
    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.transport = &transport;
    cfg.membership = &membership;
    cfg.checkpoint_every = 4;
    cfg.recv_timeout_s = 5.0;  // >= default join_grace_s (2.0)
    EXPECT_THROW(scenario.run(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Virtual-clock receive deadlines: timeout OUTCOMES depend on modeled
// arrivals only, so a run that completes under the virtual deadline is
// bit-identical to the host-clock run regardless of host scheduling.

TEST(RecoveryTest, VirtualDeadlineRunMatchesHostDeadlineRun) {
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(Algorithm::GtopkSsgd);

    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.recv_timeout_s = 5.0;  // virtual seconds; free network arrives at 0
    cfg.recv_deadline_clock = comm::DeadlineClock::Virtual;
    const auto result = scenario.run(cfg);
    EXPECT_EQ(result.final_params, clean.final_params);
}

TEST(RecoveryTest, VirtualDeadlineDiscardsLateArrivalDeterministically) {
    comm::InProcTransport transport(2);
    comm::Message late;
    late.source = 1;
    late.tag = comm::kAsyncTagBase + 1;
    late.arrival_time_s = 3.0;  // modeled arrival past the deadline
    late.payload = {std::byte{9}};

    // The runtime's receive: a handle on rank 0 whose virtual deadline is
    // t = 2.0 (clock 0 + 2 s). The matching message exists but arrives too
    // late on the modeled clock — a deterministic timeout, and the message
    // is consumed so a later wait cannot nondeterministically succeed.
    transport.deliver(0, late);
    comm::Communicator comm(transport, 0, comm::NetworkModel::free());
    comm.set_recv_deadline(comm::DeadlineClock::Virtual, 2.0);
    try {
        (void)test::recv_bytes(comm, 1, late.tag);
        FAIL() << "expected a RecvTimeout";
    } catch (const comm::CommError& e) {
        EXPECT_EQ(e.kind(), comm::CommErrorKind::RecvTimeout);
    }
    EXPECT_FALSE(transport.try_receive(0, 1, late.tag).has_value());

    // Transport::receive_for_virtual applies the same rule.
    transport.deliver(0, late);
    EXPECT_FALSE(transport
                     .receive_for_virtual(0, 1, late.tag,
                                          /*max_arrival_s=*/2.0,
                                          /*host_grace_s=*/0.05)
                     .has_value());
    EXPECT_FALSE(transport
                     .receive_for_virtual(0, 1, late.tag,
                                          /*max_arrival_s=*/10.0,
                                          /*host_grace_s=*/0.05)
                     .has_value());
}

// The async gTop-k engine under a virtual deadline: rank 1's first
// tree-merge message to rank 0 (tag offset 1 of the first handle's band)
// lands 100 modeled seconds late, far past the 1 s deadline. Rank 0 times
// out the moment it matches it — the same edge every run; the other ranks
// would only give up after the host grace, so rank 0's error is the one
// the cluster rethrows.
constexpr int kFirstMergeTag = comm::kAsyncTagBase + 1;

FaultPlan late_first_merge_plan() {
    FaultRule late;
    late.src = 1;
    late.dst = 0;
    late.tag = kFirstMergeTag;
    late.delay_prob = 1.0;
    late.extra_delay_s = 100.0;
    return chaos::seeded_plan(1).add(late);
}

void expect_first_merge_timeout(const std::function<void()>& run) {
    try {
        run();
        ADD_FAILURE() << "expected CommError(RecvTimeout)";
    } catch (const comm::CommError& e) {
        EXPECT_EQ(e.kind(), comm::CommErrorKind::RecvTimeout) << e.what();
        EXPECT_EQ(e.rank(), 0) << e.what();
        EXPECT_EQ(e.peer(), 1) << e.what();
        EXPECT_EQ(e.tag(), kFirstMergeTag) << e.what();
    }
}

sparse::SparseGradient random_local(int rank, std::size_t k) {
    util::Xoshiro256 rng(7 + static_cast<std::uint64_t>(rank));
    std::vector<float> dense(256);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    return sparse::topk_select(dense, k);
}

TEST(RecoveryTest, VirtualDeadlineTimesOutLateGtopkArrivalDeterministically) {
    for (int run = 0; run < 3; ++run) {
        FaultInjectingTransport transport(4, late_first_merge_plan());
        expect_first_merge_timeout([&] {
            comm::Cluster::run_on(transport, comm::NetworkModel::one_gbps_ethernet(),
                                  [](comm::Communicator& c) {
                                      c.set_recv_deadline(comm::DeadlineClock::Virtual,
                                                          1.0);
                                      (void)core::gtopk_allreduce(
                                          c, random_local(c.rank(), 8), 8);
                                  });
        });
        EXPECT_EQ(transport.counts().delayed, 1u) << "run " << run;
    }
}

TEST(RecoveryTest, VirtualDeadlineTimesOutLateArrivalInOverlappedLayerwiseRun) {
    TinyTrainScenario scenario(4);
    for (int run = 0; run < 3; ++run) {
        FaultInjectingTransport transport(4, late_first_merge_plan());
        train::TrainConfig cfg = scenario.config(Algorithm::LayerwiseGtopkSsgd);
        cfg.overlap = true;
        cfg.bucket_bytes = 2048;  // several buckets in flight at once
        cfg.transport = &transport;
        cfg.recv_timeout_s = 1.0;
        cfg.recv_deadline_clock = comm::DeadlineClock::Virtual;
        expect_first_merge_timeout([&] { (void)scenario.run(cfg); });
    }
}

TEST(RecoveryTest, VirtualDeadlineUnmatchedGtopkReceiveThrowsAfterHostGrace) {
    // The message never arrives: no modeled arrival can decide the outcome,
    // so the host grace bounds the wait. Only rank 0 gets a short grace,
    // which makes its error the first one.
    FaultRule drop;
    drop.src = 1;
    drop.dst = 0;
    drop.tag = kFirstMergeTag;
    drop.drop_prob = 1.0;
    FaultInjectingTransport transport(4, chaos::seeded_plan(1).add(drop));
    expect_first_merge_timeout([&] {
        comm::Cluster::run_on(transport, comm::NetworkModel::one_gbps_ethernet(),
                              [](comm::Communicator& c) {
                                  c.set_recv_deadline(comm::DeadlineClock::Virtual, 1.0);
                                  c.set_recv_host_grace_s(c.rank() == 0 ? 0.05 : 60.0);
                                  (void)core::gtopk_allreduce(
                                      c, random_local(c.rank(), 8), 8);
                              });
    });
    EXPECT_EQ(transport.counts().dropped, 1u);
}

}  // namespace
