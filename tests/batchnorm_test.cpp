// BatchNorm2d: forward statistics, train/eval behavior, gradient
// correctness (analytic formula vs finite differences through a full
// model), and distributed training with BN-equipped residual nets.
#include <gtest/gtest.h>

#include <cmath>

#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/batchnorm.hpp"
#include "nn/classifier_model.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "nn/activations.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using namespace gtopk::nn;
using gtopk::util::Xoshiro256;

Tensor random_input(std::int64_t n, std::int64_t c, std::int64_t hw,
                    std::uint64_t seed, float shift = 0.0f, float scale = 1.0f) {
    Xoshiro256 rng(seed);
    Tensor x({n, c, hw, hw});
    for (auto& v : x.data()) {
        v = shift + scale * static_cast<float>(rng.next_gaussian());
    }
    return x;
}

TEST(BatchNorm, TrainingOutputIsNormalizedPerChannel) {
    BatchNorm2d bn(3);
    Xoshiro256 rng(1);
    const ParamArena bn_params = bind_params(bn, rng);
    const Tensor x = random_input(4, 3, 6, 1, /*shift=*/5.0f, /*scale=*/3.0f);
    const Tensor y = bn.forward(x, /*training=*/true);
    for (std::int64_t c = 0; c < 3; ++c) {
        double sum = 0.0, sum_sq = 0.0;
        std::int64_t count = 0;
        for (std::int64_t b = 0; b < 4; ++b) {
            for (std::int64_t i = 0; i < 6; ++i) {
                for (std::int64_t j = 0; j < 6; ++j) {
                    const double v = y.at4(b, c, i, j);
                    sum += v;
                    sum_sq += v * v;
                    ++count;
                }
            }
        }
        const double mean = sum / count;
        const double var = sum_sq / count - mean * mean;
        EXPECT_NEAR(mean, 0.0, 1e-4) << "channel " << c;
        EXPECT_NEAR(var, 1.0, 1e-2) << "channel " << c;
    }
}

TEST(BatchNorm, GammaBetaScaleAndShift) {
    BatchNorm2d bn(1);
    Xoshiro256 rng(1);
    const ParamArena bn_params = bind_params(bn, rng);
    std::vector<Param*> params;
    bn.collect_params(params);
    ASSERT_EQ(params.size(), 2u);
    params[0]->value[0] = 2.0f;   // gamma
    params[1]->value[0] = -1.0f;  // beta
    const Tensor x = random_input(2, 1, 4, 2);
    const Tensor y = bn.forward(x, true);
    double mean = 0.0;
    for (float v : y.data()) mean += v;
    mean /= static_cast<double>(y.numel());
    EXPECT_NEAR(mean, -1.0, 1e-4);  // beta shifts the normalized mean
}

TEST(BatchNorm, EvalUsesRunningStatistics) {
    BatchNorm2d bn(2);
    Xoshiro256 rng(1);
    const ParamArena bn_params = bind_params(bn, rng);
    // Feed several training batches with mean 10 so running stats learn it.
    for (int step = 0; step < 60; ++step) {
        (void)bn.forward(random_input(4, 2, 4, 100 + step, 10.0f, 2.0f), true);
    }
    EXPECT_NEAR(bn.running_mean()[0], 10.0f, 0.5f);
    EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.8f);
    // Eval mode on a batch with the same distribution: output ~ N(0, 1).
    const Tensor y = bn.forward(random_input(8, 2, 4, 999, 10.0f, 2.0f), false);
    double mean = 0.0;
    for (float v : y.data()) mean += v;
    mean /= static_cast<double>(y.numel());
    EXPECT_NEAR(mean, 0.0, 0.2);
}

TEST(BatchNorm, EvalDoesNotTouchRunningStats) {
    BatchNorm2d bn(1);
    Xoshiro256 rng(1);
    const ParamArena bn_params = bind_params(bn, rng);
    (void)bn.forward(random_input(2, 1, 4, 5), true);
    const float before = bn.running_mean()[0];
    (void)bn.forward(random_input(2, 1, 4, 6, 50.0f), false);
    EXPECT_EQ(bn.running_mean()[0], before);
}

TEST(BatchNorm, RejectsWrongShapes) {
    BatchNorm2d bn(3);
    Tensor bad({2, 4, 4, 4});
    EXPECT_THROW(bn.forward(bad, true), std::invalid_argument);
    EXPECT_THROW(BatchNorm2d(0), std::invalid_argument);
}

TEST(BatchNorm, GradientMatchesFiniteDifferences) {
    // Full-model gradcheck through BN (smooth, so strict comparison): a
    // conv-free net isolating the BN backward formula.
    Xoshiro256 rng(11);
    auto net = std::make_unique<Sequential>();
    net->emplace<BatchNorm2d>(2);
    net->emplace<Flatten>();
    net->emplace<Linear>(2 * 4 * 4, 3);
    ClassifierModel model(std::move(net), rng);

    Batch batch;
    batch.x = random_input(3, 2, 4, 21, 1.0f, 2.0f);
    batch.targets = {0, 2, 1};
    (void)model.train_step_gradients(batch);
    const auto analytic = model.flat_grads();
    const auto theta0 = model.flat_params();

    // The analytic gradient differentiates the TRAINING-mode loss (batch
    // statistics), so the numeric probe must use the same function —
    // train_step_gradients returns it (its gradient side effects are
    // irrelevant here and running-stat updates do not affect it).
    const float eps = 1e-2f;
    int checked = 0;
    for (std::size_t i = 0; i < theta0.size() && checked < 30; i += 3) {
        if (std::abs(analytic[i]) < 2e-3f) continue;
        ++checked;
        auto theta = theta0;
        theta[i] = theta0[i] + eps;
        model.set_flat_params(theta);
        const double lp = model.train_step_gradients(batch);
        theta[i] = theta0[i] - eps;
        model.set_flat_params(theta);
        const double lm = model.train_step_gradients(batch);
        model.set_flat_params(theta0);
        const double numeric = (lp - lm) / (2.0 * eps);
        const double denom = std::max({1e-4, std::abs(numeric),
                                       static_cast<double>(std::abs(analytic[i]))});
        EXPECT_NEAR(analytic[i] / denom, numeric / denom, 3e-2) << "param " << i;
    }
    EXPECT_GT(checked, 5);
}

TEST(BatchNorm, EvalLossUsesTrainedStatsInGradcheckPath) {
    // eval_loss (used by gradcheck) runs BN in eval mode, which reads
    // running stats — verify the loss is still finite and sane right after
    // a single training step (stats initialized by the first batch).
    nn::MiniResNetConfig cfg;
    cfg.image_size = 8;
    cfg.channels = 4;
    cfg.blocks = 1;
    cfg.batch_norm = true;
    auto model = nn::make_mini_resnet(cfg, 3);
    Xoshiro256 rng(9);
    Batch batch;
    batch.x = random_input(4, 3, 8, 31);
    batch.targets = {0, 1, 2, 3};
    const double train_loss = model->train_step_gradients(batch);
    const double eval_loss = model->eval_loss(batch);
    EXPECT_TRUE(std::isfinite(train_loss));
    EXPECT_TRUE(std::isfinite(eval_loss));
}

TEST(BatchNorm, BnResNetParamCountGrows) {
    nn::MiniResNetConfig plain;
    plain.batch_norm = false;
    nn::MiniResNetConfig with_bn = plain;
    with_bn.batch_norm = true;
    EXPECT_GT(nn::make_mini_resnet(with_bn, 1)->num_params(),
              nn::make_mini_resnet(plain, 1)->num_params());
}

TEST(BatchNorm, DistributedGtopkTrainingWithBnConverges) {
    data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 8;
    dcfg.noise_std = 0.6f;
    data::SyntheticImageDataset dataset(dcfg, 13);
    data::ShardedSampler sampler(4096, 512, 4, 11);
    nn::MiniResNetConfig mcfg;
    mcfg.image_size = 8;
    mcfg.channels = 4;
    mcfg.blocks = 1;
    mcfg.batch_norm = true;

    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 4;
    config.iters_per_epoch = 20;
    config.lr = 0.03f;
    config.density = 0.05;
    const auto result = train::train_distributed(
        4, comm::NetworkModel::free(), config,
        [&](std::uint64_t seed) { return nn::make_mini_resnet(mcfg, seed); },
        [&](std::int64_t step, int rank) {
            return dataset.batch_images(sampler.batch_indices(step, rank, 8));
        },
        [&] { return dataset.batch_images(sampler.test_indices(128)); });
    EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
    EXPECT_GT(result.epochs.back().val_accuracy, 0.25);
}

}  // namespace
