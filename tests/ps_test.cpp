// Parameter-Server trainer tests: convergence, exact equivalence with the
// decentralized naive gTop-k (same math, different topology), and the
// PS-vs-AllReduce communication cost ordering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <vector>

#include "collectives/cost_model.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "obs/telemetry.hpp"
#include "ps/ps_cost_model.hpp"
#include "ps/ps_trainer.hpp"
#include "train/trainer.hpp"

namespace {

using namespace gtopk;
using comm::NetworkModel;

struct PsHarness {
    data::SyntheticImageDataset dataset;
    data::ShardedSampler sampler;
    nn::MlpConfig mlp;

    explicit PsHarness(int workers)
        : dataset(
              []() {
                  data::SyntheticImageDataset::Config cfg;
                  cfg.image_size = 8;
                  cfg.noise_std = 0.6f;
                  return cfg;
              }(),
              1234),
          sampler(8192, 1024, workers, 99) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {32, 16};
    }

    train::ModelFactory factory() const {
        return [cfg = mlp](std::uint64_t seed) { return nn::make_mlp(cfg, seed); };
    }
    train::TrainBatchProvider batches() const {
        return [this](std::int64_t step, int rank) {
            return dataset.batch_flat(sampler.batch_indices(step, rank, 16));
        };
    }
    train::EvalBatchProvider eval() const {
        return [this] { return dataset.batch_flat(sampler.test_indices(256)); };
    }
};

class PsAggregationSweep : public ::testing::TestWithParam<ps::PsAggregation> {};
INSTANTIATE_TEST_SUITE_P(Both, PsAggregationSweep,
                         ::testing::Values(ps::PsAggregation::Dense,
                                           ps::PsAggregation::Gtopk));

TEST_P(PsAggregationSweep, ConvergesOnSyntheticTask) {
    PsHarness h(4);
    ps::PsTrainConfig config;
    config.aggregation = GetParam();
    config.epochs = 5;
    config.iters_per_epoch = 30;
    config.lr = 0.05f;
    config.density = 0.02;
    const auto result = ps::train_parameter_server(4, NetworkModel::free(), config,
                                                   h.factory(), h.batches(), h.eval());
    ASSERT_EQ(result.epochs.size(), 5u);
    EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
    EXPECT_GT(result.epochs.back().val_accuracy, 0.3);
}

TEST(PsTrainer, GtopkMatchesDecentralizedNaiveGtopkBitForBit) {
    // Same global selection math, different topology -> identical final
    // parameters for identical seeds/batches.
    PsHarness h(4);
    ps::PsTrainConfig ps_config;
    ps_config.aggregation = ps::PsAggregation::Gtopk;
    ps_config.epochs = 3;
    ps_config.iters_per_epoch = 12;
    ps_config.lr = 0.05f;
    ps_config.density = 0.02;

    train::TrainConfig ar_config;
    ar_config.algorithm = train::Algorithm::NaiveGtopkSsgd;
    ar_config.epochs = ps_config.epochs;
    ar_config.iters_per_epoch = ps_config.iters_per_epoch;
    ar_config.lr = ps_config.lr;
    ar_config.momentum = ps_config.momentum;
    ar_config.density = ps_config.density;

    const auto ps_run = ps::train_parameter_server(
        4, NetworkModel::free(), ps_config, h.factory(), h.batches(), nullptr);
    const auto ar_run = train::train_distributed(
        4, NetworkModel::free(), ar_config, h.factory(), h.batches(), nullptr);
    ASSERT_EQ(ps_run.final_params.size(), ar_run.final_params.size());
    EXPECT_EQ(ps_run.final_params, ar_run.final_params);
}

TEST(PsTrainer, DeterministicAcrossRuns) {
    PsHarness h(3);
    ps::PsTrainConfig config;
    config.epochs = 2;
    config.iters_per_epoch = 8;
    config.density = 0.05;
    auto once = [&] {
        return ps::train_parameter_server(3, NetworkModel::free(), config, h.factory(),
                                          h.batches(), nullptr)
            .final_params;
    };
    EXPECT_EQ(once(), once());
}

// Pinned parameter-server trajectories: FNV-1a over the final parameters
// and every epoch's train loss, recorded before the worker step moved onto
// the in-place residual accumulation and the shared put-back. A mismatch
// means the worker's arithmetic moved. Set GTOPK_PRINT_TRAJECTORY_HASHES=1
// to print the hashes a build computes (x86-64 default build, like
// trajectory_pin_test).
struct PsPinCase {
    const char* name;
    ps::PsAggregation aggregation;
    std::uint64_t hash;
};

void PrintTo(const PsPinCase& pc, std::ostream* os) { *os << pc.name; }

class PsPinnedTrajectory : public ::testing::TestWithParam<PsPinCase> {};
INSTANTIATE_TEST_SUITE_P(
    Both, PsPinnedTrajectory,
    ::testing::Values(PsPinCase{"Dense", ps::PsAggregation::Dense, 0x497c3f29bec65c6dull},
                      PsPinCase{"Gtopk", ps::PsAggregation::Gtopk, 0xb0a8231cb2fff03dull}),
    [](const ::testing::TestParamInfo<PsPinCase>& info) { return info.param.name; });

TEST_P(PsPinnedTrajectory, FinalParamsAndLossesMatchRecordedHash) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 float arithmetic";
#endif
    const PsPinCase& pc = GetParam();
    PsHarness h(4);
    ps::PsTrainConfig config;
    config.aggregation = pc.aggregation;
    config.epochs = 2;
    config.iters_per_epoch = 6;
    config.density = 0.02;
    const auto r = ps::train_parameter_server(4, NetworkModel::free(), config,
                                              h.factory(), h.batches(), nullptr);
    ASSERT_EQ(r.epochs.size(), 2u);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    };
    mix(r.final_params.data(), r.final_params.size() * sizeof(float));
    for (const train::EpochMetrics& e : r.epochs) mix(&e.train_loss, sizeof(double));
    if (const char* env = std::getenv("GTOPK_PRINT_TRAJECTORY_HASHES");
        env && std::strcmp(env, "1") == 0) {
        std::printf("%s 0x%016llxull\n", pc.name,
                    static_cast<unsigned long long>(hash));
    }
    EXPECT_EQ(hash, pc.hash) << pc.name;
}

// Pinned parameter-server clocks on 1 GbE: per-rank virtual time and
// traffic of the push/pull exchange, for both aggregations at 2 and 4
// workers. train_parameter_server reports per-rank numbers only through
// the telemetry plane, so the run has telemetry on and the hash reads every
// rank's per-step clock advance (a difference of virtual clocks), messages
// and bytes sent and received, plus worker 0's counts, its mean clock
// advance and the final parameters. comm_time_s and the host-time fields
// are left out (mailbox depth too: it samples in-flight traffic). Recorded
// before the exchange moved off the blocking send/recv. Set
// GTOPK_PRINT_CLOCK_PIN=1 to print what a build computes; x86-64 only, like
// the other pins.
struct PsClockCase {
    const char* name;
    ps::PsAggregation aggregation;
    int workers;
    std::uint64_t hash;
};

void PrintTo(const PsClockCase& pc, std::ostream* os) { *os << pc.name; }

class PsClockPin : public ::testing::TestWithParam<PsClockCase> {};
INSTANTIATE_TEST_SUITE_P(
    OneGbE, PsClockPin,
    ::testing::Values(
        PsClockCase{"Dense2", ps::PsAggregation::Dense, 2, 0x576a22c8105d2e1cull},
        PsClockCase{"Dense4", ps::PsAggregation::Dense, 4, 0xc10e8ddf7ccdf8feull},
        PsClockCase{"Gtopk2", ps::PsAggregation::Gtopk, 2, 0x152b0f3e45533720ull},
        PsClockCase{"Gtopk4", ps::PsAggregation::Gtopk, 4, 0xc5e0230720546289ull}),
    [](const ::testing::TestParamInfo<PsClockCase>& info) { return info.param.name; });

TEST_P(PsClockPin, PerRankClocksCountsAndParamsMatchRecordedHash) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 float arithmetic";
#endif
    const PsClockCase& pc = GetParam();
    PsHarness h(pc.workers);
    obs::Telemetry telem(pc.workers + 1);
    ps::PsTrainConfig config;
    config.aggregation = pc.aggregation;
    config.epochs = 2;
    config.iters_per_epoch = 4;
    config.density = 0.02;
    config.telemetry = &telem;
    const auto r = ps::train_parameter_server(pc.workers,
                                              NetworkModel::one_gbps_ethernet(),
                                              config, h.factory(), h.batches(),
                                              nullptr);
    const std::vector<obs::IterSnapshot> snaps = telem.snapshots();
    ASSERT_EQ(snaps.size(), 8u);

    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    };
    for (const obs::IterSnapshot& snap : snaps) {
        mix(&snap.step, sizeof(snap.step));
        for (const obs::RankIterStats& row : snap.ranks) {
            mix(&row.physical_rank, sizeof(row.physical_rank));
            mix(&row.comm_virtual_s, sizeof(row.comm_virtual_s));
            mix(&row.wire_bytes_sent, sizeof(row.wire_bytes_sent));
            mix(&row.wire_bytes_received, sizeof(row.wire_bytes_received));
            mix(&row.messages_sent, sizeof(row.messages_sent));
            mix(&row.messages_received, sizeof(row.messages_received));
            mix(&row.nnz, sizeof(row.nnz));
        }
    }
    mix(&r.rank0_comm.messages_sent, sizeof(std::uint64_t));
    mix(&r.rank0_comm.messages_received, sizeof(std::uint64_t));
    mix(&r.rank0_comm.bytes_sent, sizeof(std::uint64_t));
    mix(&r.rank0_comm.bytes_received, sizeof(std::uint64_t));
    mix(&r.mean_comm_virtual_s, sizeof(double));
    mix(r.final_params.data(), r.final_params.size() * sizeof(float));
    if (const char* env = std::getenv("GTOPK_PRINT_CLOCK_PIN");
        env && std::strcmp(env, "1") == 0) {
        std::printf("%s 0x%016llxull\n", pc.name,
                    static_cast<unsigned long long>(hash));
    }
    EXPECT_EQ(hash, pc.hash) << pc.name;
}

TEST(PsTrainer, WarmupScheduleApplied) {
    PsHarness h(2);
    ps::PsTrainConfig config;
    config.epochs = 3;
    config.iters_per_epoch = 4;
    config.density = 0.01;
    config.warmup_densities = {0.25, 0.05};
    const auto result = ps::train_parameter_server(2, NetworkModel::free(), config,
                                                   h.factory(), h.batches(), nullptr);
    ASSERT_EQ(result.epochs.size(), 3u);
    EXPECT_DOUBLE_EQ(result.epochs[0].density, 0.25);
    EXPECT_DOUBLE_EQ(result.epochs[1].density, 0.05);
    EXPECT_DOUBLE_EQ(result.epochs[2].density, 0.01);
}

TEST(PsTrainer, RejectsZeroWorkers) {
    PsHarness h(2);
    ps::PsTrainConfig config;
    EXPECT_THROW(ps::train_parameter_server(0, NetworkModel::free(), config,
                                            h.factory(), h.batches(), nullptr),
                 std::invalid_argument);
}

TEST(PsCostModel, LinearInWorkers) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const double t8 = ps::ps_gtopk_time_s(net, 8, 25'000);
    const double t16 = ps::ps_gtopk_time_s(net, 16, 25'000);
    EXPECT_NEAR(t16 / t8, 17.0 / 9.0, 1e-9);
}

TEST(PsCostModel, TreeBeatsStarAtScale) {
    // The decentralized O(k logP) tree must beat the O(kP) PS star for
    // large P — the quantified version of the paper's footnote 2.
    const auto net = NetworkModel::one_gbps_ethernet();
    for (int p : {8, 16, 32, 64}) {
        EXPECT_GT(ps::ps_gtopk_time_s(net, p, 25'000),
                  gtopk::collectives::gtopk_allreduce_time_s(net, p, 25'000))
            << "P=" << p;
    }
}

TEST(PsTrainer, VirtualCommTimeReflectsStarTopology) {
    // Measured virtual comm per iteration grows with worker count in the
    // PS topology (server replies serialize).
    PsHarness h4(4);
    PsHarness h8(8);
    ps::PsTrainConfig config;
    config.epochs = 1;
    config.iters_per_epoch = 6;
    config.density = 0.05;
    const auto r4 = ps::train_parameter_server(
        4, NetworkModel::one_gbps_ethernet(), config, h4.factory(), h4.batches(),
        nullptr);
    const auto r8 = ps::train_parameter_server(
        8, NetworkModel::one_gbps_ethernet(), config, h8.factory(), h8.batches(),
        nullptr);
    EXPECT_GT(r8.mean_comm_virtual_s, r4.mean_comm_virtual_s);
}

}  // namespace
