// Selection-policy tests: static and adaptive thresholds (related-work
// baselines), their trainer integration, and the DGC options (clipping,
// momentum correction).
#include <gtest/gtest.h>

#include <cmath>

#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "sparse/selection_policy.hpp"
#include "sparse/topk_select.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using comm::NetworkModel;
using sparse::AdaptiveThresholdSelector;
using sparse::SelectionPolicy;
using sparse::threshold_select;

TEST(ThresholdSelect, KeepsExactlyTheLargeEntries) {
    const std::vector<float> dense{0.5f, -2.0f, 0.1f, 3.0f, -0.7f};
    const auto g = threshold_select(dense, 0.7f);
    EXPECT_EQ(g.indices, (std::vector<std::int32_t>{1, 3, 4}));
    EXPECT_EQ(g.values, (std::vector<float>{-2.0f, 3.0f, -0.7f}));
    EXPECT_NO_THROW(g.validate());
}

TEST(ThresholdSelect, ZeroThresholdKeepsEverything) {
    const std::vector<float> dense{0.0f, 1.0f, -1.0f};
    EXPECT_EQ(threshold_select(dense, 0.0f).nnz(), 3u);
}

TEST(ThresholdSelect, HighThresholdKeepsNothing) {
    const std::vector<float> dense{0.5f, -0.5f};
    EXPECT_EQ(threshold_select(dense, 10.0f).nnz(), 0u);
    EXPECT_THROW(threshold_select(dense, -1.0f), std::invalid_argument);
}

TEST(AdaptiveThreshold, ConvergesToTargetDensity) {
    util::Xoshiro256 rng(7);
    AdaptiveThresholdSelector selector(0.01, /*initial_threshold=*/1.0f);
    std::size_t final_nnz = 0;
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<float> dense(10'000);
        for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
        final_nnz = selector.select(dense).nnz();
    }
    // Target is 100 entries; the dead zone allows +-20% plus one
    // adjustment step of slack.
    EXPECT_GT(final_nnz, 50u);
    EXPECT_LT(final_nnz, 200u);
}

TEST(AdaptiveThreshold, TracksDistributionShift) {
    util::Xoshiro256 rng(9);
    AdaptiveThresholdSelector selector(0.01);
    auto run_rounds = [&](float scale, int rounds) {
        std::size_t nnz = 0;
        for (int i = 0; i < rounds; ++i) {
            std::vector<float> dense(10'000);
            for (auto& v : dense) {
                v = scale * static_cast<float>(rng.next_gaussian());
            }
            nnz = selector.select(dense).nnz();
        }
        return nnz;
    };
    const std::size_t small_scale = run_rounds(0.01f, 50);
    const std::size_t large_scale = run_rounds(100.0f, 50);
    EXPECT_GT(small_scale, 50u);
    EXPECT_LT(small_scale, 200u);
    EXPECT_GT(large_scale, 50u);
    EXPECT_LT(large_scale, 200u);
}

TEST(AdaptiveThreshold, RejectsBadConfig) {
    EXPECT_THROW(AdaptiveThresholdSelector(0.0), std::invalid_argument);
    EXPECT_THROW(AdaptiveThresholdSelector(1.5), std::invalid_argument);
    EXPECT_THROW(AdaptiveThresholdSelector(0.1, -1.0f), std::invalid_argument);
    EXPECT_THROW(AdaptiveThresholdSelector(0.1, 1.0f, 0.5f), std::invalid_argument);
}

TEST(SampledTopk, ApproximatesExactSelectionCount) {
    util::Xoshiro256 data_rng(15);
    std::vector<float> dense(100'000);
    for (auto& v : dense) v = static_cast<float>(data_rng.next_gaussian());
    util::Xoshiro256 sel_rng(16);
    const std::size_t k = 1000;
    const auto sel = gtopk::sparse::sampled_topk_select(dense, k, sel_rng);
    // Sampling noise: accept within 2.5x either way of the target.
    EXPECT_GT(sel.nnz(), k / 3);
    EXPECT_LT(sel.nnz(), k * 3);
    EXPECT_NO_THROW(sel.validate());
}

TEST(SampledTopk, SelectedEntriesDominateTypicalUnselected) {
    // Everything the sampled selection keeps must be above its estimated
    // threshold, i.e. at least as large as the smallest kept magnitude.
    util::Xoshiro256 data_rng(17);
    std::vector<float> dense(20'000);
    for (auto& v : dense) v = static_cast<float>(data_rng.next_gaussian());
    util::Xoshiro256 sel_rng(18);
    const auto sel = gtopk::sparse::sampled_topk_select(dense, 200, sel_rng);
    ASSERT_GT(sel.nnz(), 0u);
    float min_kept = std::abs(sel.values[0]);
    for (float v : sel.values) min_kept = std::min(min_kept, std::abs(v));
    // The exact 200th largest magnitude (the exact selection's smallest
    // kept one) should be close to min_kept.
    const auto exact = gtopk::sparse::topk_select(dense, 200);
    float exact_thr = std::abs(exact.values[0]);
    for (float v : exact.values) exact_thr = std::min(exact_thr, std::abs(v));
    EXPECT_NEAR(min_kept, exact_thr, exact_thr * 0.4f);
}

TEST(SampledTopk, DegenerateInputs) {
    util::Xoshiro256 rng(1);
    EXPECT_EQ(gtopk::sparse::sampled_topk_select({}, 5, rng).nnz(), 0u);
    std::vector<float> dense{1.0f, -2.0f};
    EXPECT_EQ(gtopk::sparse::sampled_topk_select(dense, 0, rng).nnz(), 0u);
    EXPECT_EQ(gtopk::sparse::sampled_topk_select(dense, 10, rng).nnz(), 2u);
}

TEST(SampledTopk, DeterministicGivenRngState) {
    util::Xoshiro256 data_rng(19);
    std::vector<float> dense(5'000);
    for (auto& v : dense) v = static_cast<float>(data_rng.next_gaussian());
    util::Xoshiro256 a(7), b(7);
    EXPECT_EQ(gtopk::sparse::sampled_topk_select(dense, 50, a),
              gtopk::sparse::sampled_topk_select(dense, 50, b));
}

TEST(SelectionPolicyNames, AreStable) {
    EXPECT_STREQ(sparse::selection_policy_name(SelectionPolicy::ExactTopk),
                 "exact top-k");
    EXPECT_STREQ(sparse::selection_policy_name(SelectionPolicy::StaticThreshold),
                 "static threshold");
}

// ---- trainer integration ----

struct Harness {
    data::SyntheticImageDataset dataset;
    data::ShardedSampler sampler;
    nn::MlpConfig mlp;

    explicit Harness(int world)
        : dataset(
              []() {
                  data::SyntheticImageDataset::Config cfg;
                  cfg.image_size = 8;
                  cfg.noise_std = 0.6f;
                  return cfg;
              }(),
              77),
          sampler(8192, 1024, world, 8) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {32, 16};
    }
};

train::TrainResult run(int world, const train::TrainConfig& config, const Harness& h) {
    return train::train_distributed(
        world, NetworkModel::free(), config,
        [cfg = h.mlp](std::uint64_t seed) { return nn::make_mlp(cfg, seed); },
        [&](std::int64_t step, int rank) {
            return h.dataset.batch_flat(h.sampler.batch_indices(step, rank, 16));
        },
        [&] { return h.dataset.batch_flat(h.sampler.test_indices(256)); });
}

class PolicySweep : public ::testing::TestWithParam<SelectionPolicy> {};
INSTANTIATE_TEST_SUITE_P(All, PolicySweep,
                         ::testing::Values(SelectionPolicy::ExactTopk,
                                           SelectionPolicy::StaticThreshold,
                                           SelectionPolicy::AdaptiveThreshold,
                                           SelectionPolicy::SampledTopk));

TEST_P(PolicySweep, GtopkTrainingConvergesUnderEveryPolicy) {
    Harness h(4);
    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 5;
    config.iters_per_epoch = 30;
    config.lr = 0.05f;
    config.density = 0.02;
    config.selection = GetParam();
    config.static_threshold = 0.01f;
    config.check_invariants = true;  // error feedback must hold regardless
    const auto r = run(4, config, h);
    EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
    EXPECT_GT(r.epochs.back().val_accuracy, 0.3);
}

TEST(SelectionPolicyTrainer, ThresholdPolicyRejectedForTopkAllreduce) {
    Harness h(2);
    train::TrainConfig config;
    config.algorithm = train::Algorithm::TopkSsgd;
    config.selection = SelectionPolicy::StaticThreshold;
    EXPECT_THROW(run(2, config, h), std::invalid_argument);
}

TEST(DgcOptions, GradientClippingBoundsTheUpdate) {
    Harness h(2);
    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 3;
    config.iters_per_epoch = 20;
    config.lr = 0.05f;
    config.density = 0.02;
    config.gradient_clip_norm = 0.5f;
    const auto r = run(2, config, h);
    EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
}

TEST(DgcOptions, MomentumCorrectionConvergesAndStaysConsistent) {
    Harness h(4);
    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 5;
    config.iters_per_epoch = 30;
    config.lr = 0.05f;
    config.momentum = 0.9f;
    config.momentum_mode = train::TrainConfig::MomentumMode::LocalCorrection;
    config.density = 0.02;
    config.check_invariants = true;  // replicas must not diverge
    const auto r = run(4, config, h);
    EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
    EXPECT_GT(r.epochs.back().val_accuracy, 0.3);
}

TEST(DgcOptions, MomentumCorrectionDiffersFromPostAggregation) {
    Harness h(2);
    train::TrainConfig a;
    a.algorithm = train::Algorithm::GtopkSsgd;
    a.epochs = 2;
    a.iters_per_epoch = 10;
    a.density = 0.02;
    train::TrainConfig b = a;
    b.momentum_mode = train::TrainConfig::MomentumMode::LocalCorrection;
    EXPECT_NE(run(2, a, h).final_params, run(2, b, h).final_params);
}

}  // namespace
