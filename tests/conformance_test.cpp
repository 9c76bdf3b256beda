// Runtime conformance: live threaded runs, recorded through
// comm::RecordingTransport, must emit EXACTLY the message streams the
// static schedule generators predict — same edges, same absolute tags,
// same byte counts, zero diff. This closes commcheck's loop: the verified
// spec is provably the executed protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/conformance.hpp"
#include "collectives/collectives.hpp"
#include "collectives/schedule.hpp"
#include "comm/cluster.hpp"
#include "comm/recording_transport.hpp"
#include "comm/tags.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "sparse/wire.hpp"
#include "train/trainer.hpp"

namespace gtopk {
namespace {

using analysis::SchedulePredictor;
using analysis::diff_conformance;
using collectives::AllgatherAlgo;
using comm::NetworkModel;
using train::Algorithm;
using train::TrainConfig;

// ---------------------------------------------------------------------------
// Raw collectives: a fixed SPMD sequence over a RecordingTransport diffs
// clean against the same generators, on power-of-two AND awkward worlds.
// ---------------------------------------------------------------------------

void expect_zero_diff(const SchedulePredictor& pred,
                      const comm::RecordingTransport& rec) {
    const std::vector<comm::RecordedMsg> log = rec.log();
    const auto report = diff_conformance(pred, log);
    EXPECT_TRUE(report.ok) << report.divergence;
    EXPECT_EQ(report.expected_messages, report.actual_messages);
    EXPECT_EQ(report.matched_messages, report.expected_messages);
}

class CollectivesConformance : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, CollectivesConformance,
                         ::testing::Values(2, 3, 4, 5, 8));

TEST_P(CollectivesConformance, MixedSequenceDiffsClean) {
    const int world = GetParam();
    comm::RecordingTransport rec(world);
    std::vector<int> end_cursor(static_cast<std::size_t>(world), -1);

    comm::Cluster::run_on(rec, NetworkModel::free(), [&](comm::Communicator& c) {
        const int rank = c.rank();
        collectives::barrier(c);
        std::vector<float> b(6, static_cast<float>(rank));
        collectives::broadcast(c, b, /*root=*/1);
        std::vector<float> v(17, 1.0f);
        collectives::allreduce_sum_ring(c, v);
        const double trio[3] = {1.0, 2.0, static_cast<double>(rank)};
        (void)collectives::allgather<double>(c, std::span<const double>(trio, 3));
        std::vector<float> uneven(static_cast<std::size_t>(rank) + 1, 2.0f);
        (void)collectives::allgatherv<float>(c, uneven);
        std::vector<float> g3(3, static_cast<float>(rank));
        (void)collectives::gather<float>(c, g3, /*root=*/world - 1);
        (void)collectives::reduce_sum<float>(c, v, /*root=*/0);
        // A zero-tag reservation reads the cursor without moving it.
        end_cursor[static_cast<std::size_t>(rank)] = c.fresh_async_tags(0);
    });

    // The predictor mirrors the worker's calls one-for-one, turning tag
    // offsets into absolute tags by replaying the SPMD async-band cursor.
    SchedulePredictor pred(world);
    pred.add(collectives::barrier_schedule(world));
    pred.add(collectives::broadcast_schedule(world, 1, 6 * 4));
    pred.add(collectives::allreduce_ring_schedule(world, 17, 4));
    pred.add(collectives::allgather_schedule(world, 3, 8));
    std::vector<std::int64_t> uneven_bytes;
    for (int r = 0; r < world; ++r) uneven_bytes.push_back(4 * (r + 1));
    pred.add(collectives::allgatherv_schedule(world, uneven_bytes));
    pred.add(collectives::gather_schedule(world, world - 1, 3 * 4));
    pred.add(collectives::reduce_schedule(world, 0, 17 * 4));
    expect_zero_diff(pred, rec);

    // SPMD lockstep: every rank's tag cursor ends exactly where the
    // predictor's replay says it must.
    for (int r = 0; r < world; ++r) {
        EXPECT_EQ(end_cursor[static_cast<std::size_t>(r)], pred.async_cursor());
    }
}

TEST(CollectivesConformance, DivergenceIsDetectedAndNamed) {
    // Predict a different payload size than the run ships: the diff must
    // fire with a readable first-divergence report, not silently pass.
    const int world = 4;
    comm::RecordingTransport rec(world);
    comm::Cluster::run_on(rec, NetworkModel::free(), [&](comm::Communicator& c) {
        std::vector<float> v(17, 1.0f);
        collectives::allreduce_sum_ring(c, v);
    });
    SchedulePredictor pred(world);
    pred.add(collectives::allreduce_ring_schedule(world, 18, 4));  // wrong m
    const auto report = diff_conformance(pred, rec.log());
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.divergence.empty());
    EXPECT_NE(report.divergence.find("allreduce.ring"), std::string::npos)
        << report.divergence;
}

// ---------------------------------------------------------------------------
// Full training runs: every aggregation algorithm's end-to-end message
// stream (iterations x epochs, plus the per-epoch loss allgather) matches
// the statically generated schedules exactly.
// ---------------------------------------------------------------------------

struct TrainHarness {
    data::SyntheticImageDataset dataset;
    data::ShardedSampler sampler;
    nn::MlpConfig mlp;
    std::int64_t batch = 8;

    explicit TrainHarness(int world)
        : dataset(
              []() {
                  data::SyntheticImageDataset::Config cfg;
                  cfg.image_size = 8;
                  cfg.noise_std = 0.6f;
                  return cfg;
              }(),
              1234),
          sampler(2048, 256, world, 99) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {16};
        mlp.classes = 10;
    }

    train::ModelFactory factory() const {
        return [cfg = mlp](std::uint64_t seed) { return nn::make_mlp(cfg, seed); };
    }
    train::TrainBatchProvider train_batches() const {
        return [this](std::int64_t step, int rank) {
            return dataset.batch_flat(sampler.batch_indices(step, rank, batch));
        };
    }
};

class TrainerConformance : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Algorithms, TrainerConformance,
                         ::testing::Values(Algorithm::DenseSsgd, Algorithm::TopkSsgd,
                                           Algorithm::GtopkSsgd,
                                           Algorithm::NaiveGtopkSsgd));

TEST_P(TrainerConformance, LiveRunMatchesStaticScheduleExactly) {
    const int world = 4;
    TrainHarness h(world);

    TrainConfig config;
    config.algorithm = GetParam();
    config.epochs = 2;
    config.iters_per_epoch = 3;
    config.density = 0.01;
    config.check_invariants = false;  // keeps the comm pattern = the paper's

    comm::RecordingTransport rec(world);
    config.transport = &rec;
    (void)train::train_distributed(world, NetworkModel::free(), config, h.factory(),
                                   h.train_batches(), train::EvalBatchProvider{});

    // Reconstruct the run's comm plan from the generators alone.
    const auto probe = h.factory()(config.model_seed);
    const std::size_t m = probe->flat_params().size();
    // Mirrors the trainer's k derivation (no warmup configured).
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config.density * static_cast<double>(m))));
    // ExactTopk keeps nnz == k through every merge (a union of k-sets has
    // at least k entries), so the sparse wire payloads are statically known.
    const auto wire = static_cast<std::int64_t>(sparse::wire_size_bytes(k));

    SchedulePredictor pred(world);
    const std::vector<std::int64_t> wire_per_rank(static_cast<std::size_t>(world),
                                                  wire);
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        for (int it = 0; it < config.iters_per_epoch; ++it) {
            switch (config.algorithm) {
                case Algorithm::DenseSsgd:
                    pred.add(collectives::allreduce_ring_schedule(
                        world, static_cast<std::int64_t>(m), 4));
                    break;
                case Algorithm::TopkSsgd:
                    pred.add(collectives::allgather_schedule(
                        world, wire, 1, AllgatherAlgo::RecursiveDoubling));
                    break;
                case Algorithm::GtopkSsgd:
                    pred.add(collectives::gtopk_allreduce_schedule(world, wire));
                    break;
                case Algorithm::NaiveGtopkSsgd:
                    pred.add(collectives::allgatherv_schedule(world, wire_per_rank));
                    break;
                default:
                    FAIL() << "unexpected algorithm";
            }
        }
        // End-of-epoch loss averaging: one double per rank, ring allgather.
        pred.add(collectives::allgather_schedule(world, 1, 8, AllgatherAlgo::Ring));
    }

    expect_zero_diff(pred, rec);
}

}  // namespace
}  // namespace gtopk
