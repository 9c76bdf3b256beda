// Overlapped training end-to-end: scheduling may change WHEN traffic moves,
// never WHAT the replicas compute. Overlap on must be bit-identical to
// overlap off, its message stream must diff clean against the static
// schedules (tag-stream conformance), and it must survive chaos and a
// mid-run rank kill with buckets in flight (DESIGN.md §14).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/conformance.hpp"
#include "collectives/collectives.hpp"
#include "collectives/schedule.hpp"
#include "comm/cluster.hpp"
#include "comm/membership.hpp"
#include "comm/recording_transport.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "train/bucketer.hpp"
#include "train/trainer.hpp"
#include "chaos_common.hpp"

namespace {

using namespace gtopk;
using analysis::ConformanceMode;
using analysis::SchedulePredictor;
using comm::NetworkModel;
using train::Algorithm;
using train::TrainConfig;

struct Harness {
    data::SyntheticImageDataset dataset;
    data::ShardedSampler sampler;
    nn::MlpConfig mlp;
    int world;

    explicit Harness(int world_size)
        : dataset(
              []() {
                  data::SyntheticImageDataset::Config cfg;
                  cfg.image_size = 8;
                  cfg.noise_std = 0.6f;
                  return cfg;
              }(),
              321),
          sampler(4096, 512, world_size, 5),
          world(world_size) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {32, 16};
    }

    TrainConfig config() const {
        TrainConfig cfg;
        cfg.algorithm = Algorithm::LayerwiseGtopkSsgd;
        cfg.epochs = 2;
        cfg.iters_per_epoch = 6;
        cfg.lr = 0.05f;
        cfg.density = 0.02;
        return cfg;
    }

    train::TrainResult run(const TrainConfig& cfg) const {
        return train::train_distributed(
            world, NetworkModel::free(), cfg,
            [mc = mlp](std::uint64_t seed) { return nn::make_mlp(mc, seed); },
            [this](std::int64_t step, int rank) {
                return dataset.batch_flat(sampler.batch_indices(step, rank, 16));
            },
            train::EvalBatchProvider{});
    }
};

// ---------------------------------------------------------------------------
// Bit-identity: overlap is pure scheduling
// ---------------------------------------------------------------------------

class OverlapBitIdentity : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, OverlapBitIdentity, ::testing::Values(2, 3, 4));

TEST_P(OverlapBitIdentity, FinalParamsMatchOverlapOff) {
    Harness h(GetParam());
    TrainConfig off = h.config();
    for (const std::int64_t bucket_bytes : {std::int64_t{0}, std::int64_t{4096}}) {
        off.bucket_bytes = bucket_bytes;
        TrainConfig on = off;
        on.overlap = true;
        on.overlap_backward_s = 0.01;  // modeled compute must not leak into math
        const auto ro = h.run(off);
        const auto rn = h.run(on);
        ASSERT_EQ(ro.final_params, rn.final_params)
            << "bucket_bytes=" << bucket_bytes;
    }
}

TEST(OverlapConfig, OverlapRequiresLayerwiseAlgorithm) {
    Harness h(2);
    TrainConfig cfg = h.config();
    cfg.algorithm = Algorithm::GtopkSsgd;
    cfg.overlap = true;
    EXPECT_THROW(h.run(cfg), std::invalid_argument);
}

TEST(OverlapTiming, OverlapHidesModeledCommUnderBackward) {
    // On a real (non-free) network with injected backward time, overlap must
    // strictly reduce rank 0's virtual comm wait, without changing math.
    Harness h(4);
    TrainConfig off = h.config();
    off.bucket_bytes = 2048;
    off.overlap_backward_s = 0.05;
    TrainConfig on = off;
    on.overlap = true;

    auto run_on_net = [&](const TrainConfig& cfg) {
        return train::train_distributed(
            h.world, NetworkModel::one_gbps_ethernet(), cfg,
            [mc = h.mlp](std::uint64_t seed) { return nn::make_mlp(mc, seed); },
            [&h](std::int64_t step, int rank) {
                return h.dataset.batch_flat(h.sampler.batch_indices(step, rank, 16));
            },
            train::EvalBatchProvider{});
    };
    const auto ro = run_on_net(off);
    const auto rn = run_on_net(on);
    EXPECT_EQ(ro.final_params, rn.final_params);
    EXPECT_LT(rn.mean_comm_virtual_s, ro.mean_comm_virtual_s);
}

// ---------------------------------------------------------------------------
// Conformance: the overlapped message stream diffs to ZERO against the
// static schedules under tag-stream ordering
// ---------------------------------------------------------------------------

TEST(OverlapConformance, OverlappedRunDiffsCleanInTagStreamMode) {
    const int world = 4;
    Harness h(world);
    TrainConfig cfg = h.config();
    cfg.overlap = true;
    cfg.bucket_bytes = 2048;  // fuses this MLP into two in-flight buckets

    comm::RecordingTransport rec(world);
    cfg.transport = &rec;
    (void)h.run(cfg);

    // Reconstruct the plan: per iteration, one async gTop-k per bucket,
    // issued in backward bucket order (the trainer's handle START order);
    // per epoch, the loss allgather, next on the same async-band cursor.
    const auto probe = nn::make_mlp(h.mlp, cfg.model_seed);
    std::vector<std::size_t> seg_offsets{0};
    for (const auto& p : probe->params()) {
        seg_offsets.push_back(seg_offsets.back() + p.value.size());
    }
    const auto buckets = train::fuse_buckets(seg_offsets, cfg.bucket_bytes);
    ASSERT_GE(buckets.size(), 2u) << "need >= 2 concurrent handles in flight";

    SchedulePredictor pred(world);
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        for (int it = 0; it < cfg.iters_per_epoch; ++it) {
            for (std::size_t i = buckets.size(); i-- > 0;) {
                pred.add(collectives::gtopk_allreduce_schedule(
                    world, collectives::kVariableBytes));
            }
        }
        pred.add(collectives::allgather_schedule(world, 1, 8,
                                                 collectives::AllgatherAlgo::Ring));
    }

    // Edge-order would be flaky: handles interleave nondeterministically on
    // the host. Tag-stream ordering collapses the interleaving and still
    // proves the same multiset of messages with per-tag FIFO intact.
    const auto report =
        analysis::diff_conformance(pred, rec.log(), ConformanceMode::kTagStream);
    EXPECT_TRUE(report.ok) << report.divergence;
    EXPECT_EQ(report.matched_messages, report.expected_messages);
}

// ---------------------------------------------------------------------------
// Chaos: maskable adversity with overlap on stays bit-identical
// ---------------------------------------------------------------------------

TEST(OverlapChaos, MaskableFaultsAreBitIdenticalWithOverlapOn) {
    const std::uint64_t seed = chaos::base_seed();
    chaos::TinyTrainScenario scenario(4);
    auto overlap_patch = [](TrainConfig& cfg) {
        cfg.overlap = true;
        cfg.bucket_bytes = 2048;
        cfg.overlap_backward_s = 0.01;
    };
    TrainConfig clean_cfg = scenario.config(Algorithm::LayerwiseGtopkSsgd);
    overlap_patch(clean_cfg);
    const auto clean = scenario.run(clean_cfg);

    comm::FaultInjectingTransport transport(scenario.world,
                                            chaos::maskable_plan(seed));
    TrainConfig chaos_cfg = clean_cfg;
    chaos_cfg.transport = &transport;
    chaos_cfg.recv_timeout_s = 5.0;
    std::string err;
    const auto outcome =
        chaos::classify([&] {
            const auto chaotic = scenario.run(chaos_cfg);
            ASSERT_EQ(chaotic.final_params, clean.final_params);
        }, &err);
    EXPECT_EQ(outcome, chaos::Outcome::Completed) << err;
}

// ---------------------------------------------------------------------------
// Recovery: a rank killed with buckets in flight surfaces a typed
// CommError, regroups, and finishes on the survivors
// ---------------------------------------------------------------------------

TEST(OverlapRecovery, KillWithBucketsInFlightRegroupsAndFinishes) {
    const std::uint64_t seed = chaos::base_seed();
    chaos::TinyTrainScenario scenario(4);
    comm::FaultPlan plan = chaos::seeded_plan(seed);
    plan.kill_at_step(/*rank=*/3, /*step=*/6);

    comm::FaultInjectingTransport transport(scenario.world, plan);
    comm::MembershipService membership(transport);

    TrainConfig cfg = scenario.config(Algorithm::LayerwiseGtopkSsgd);
    cfg.overlap = true;
    cfg.bucket_bytes = 2048;         // multiple buckets -> >= 2 handles in flight
    cfg.overlap_backward_s = 0.01;
    cfg.transport = &transport;
    cfg.membership = &membership;
    cfg.recv_timeout_s = 0.25;       // async wait's stall detector
    cfg.checkpoint_every = 4;

    train::TrainResult result;
    std::string err;
    const auto outcome =
        chaos::classify([&] { result = scenario.run(cfg); }, &err);
    ASSERT_EQ(outcome, chaos::Outcome::Completed) << err;
    // The kill shrank the world and the survivors regrouped exactly once.
    EXPECT_EQ(result.final_members.size(), 3u);
    EXPECT_GE(result.final_membership_epoch, 1);
    ASSERT_FALSE(result.survivor_params.empty());
    for (const auto& params : result.survivor_params) {
        EXPECT_EQ(params, result.survivor_params.front());  // replica consistency
    }
}

}  // namespace
