// Numerical gradient checks: backprop gradients of every model in the zoo
// (and therefore every layer type: Linear, Conv2d, MaxPool2d, ReLU, Tanh,
// Sigmoid, Flatten, ResidualBlock, and the full LSTM BPTT) are compared
// against central finite differences of the loss.
//
// ReLU and MaxPool are piecewise linear: when a perturbation of size eps
// crosses a kink (a ReLU pre-activation flips sign, an argmax changes),
// the finite difference measures a different linear piece than the
// analytic one-sided gradient and the comparison is meaningless. The
// checker detects kinks by comparing the two one-sided differences and
// skips those coordinates; smooth (Tanh) models are additionally checked
// with NO skipping, so a genuine backprop bug cannot hide behind the
// kink filter.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.hpp"
#include "nn/classifier_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk::nn;
using gtopk::util::Xoshiro256;

Batch random_classifier_batch(std::int64_t n, std::vector<std::int64_t> xshape,
                              std::int64_t classes, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    xshape.insert(xshape.begin(), n);
    Batch batch;
    batch.x = Tensor(xshape);
    for (auto& v : batch.x.data()) v = static_cast<float>(rng.next_gaussian());
    for (std::int64_t i = 0; i < n; ++i) {
        batch.targets.push_back(static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(classes))));
    }
    return batch;
}

Batch random_lm_batch(std::int64_t n, std::int64_t t_len, std::int64_t vocab,
                      std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Batch batch;
    batch.x = Tensor({n, t_len});
    for (auto& v : batch.x.data()) {
        v = static_cast<float>(rng.next_below(static_cast<std::uint64_t>(vocab)));
    }
    for (std::int64_t i = 0; i < n * t_len; ++i) {
        batch.targets.push_back(static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(vocab))));
    }
    return batch;
}

struct GradcheckOptions {
    int samples = 40;
    double tolerance = 2e-2;
    float eps = 1e-3f;
    /// Minimum |analytic| worth checking; below it float32 loss noise
    /// (~1e-4 absolute on the difference) dominates the estimate.
    float min_grad = 5e-3f;
    /// When true, coordinates whose two one-sided differences disagree by
    /// more than 25% are skipped (kink within eps). Must be false for
    /// smooth models so nothing can hide.
    bool skip_kinks = true;
};

void gradcheck(TrainableModel& model, const Batch& batch,
               const GradcheckOptions& opt) {
    (void)model.train_step_gradients(batch);
    const std::vector<float> analytic = model.flat_grads();
    const std::vector<float> theta0 = model.flat_params();
    const std::size_t m = theta0.size();
    const double l0 = model.eval_loss(batch);

    Xoshiro256 pick(0xD1CE);
    int checked = 0, kinks = 0;
    for (int s = 0; s < opt.samples * 6 && checked < opt.samples; ++s) {
        const std::size_t i = static_cast<std::size_t>(pick.next_below(m));
        if (std::abs(analytic[i]) < opt.min_grad) continue;

        std::vector<float> theta = theta0;
        theta[i] = theta0[i] + opt.eps;
        model.set_flat_params(theta);
        const double lp = model.eval_loss(batch);
        theta[i] = theta0[i] - opt.eps;
        model.set_flat_params(theta);
        const double lm = model.eval_loss(batch);
        model.set_flat_params(theta0);

        const double fwd = (lp - l0) / opt.eps;
        const double bwd = (l0 - lm) / opt.eps;
        const double central = (lp - lm) / (2.0 * opt.eps);
        if (opt.skip_kinks) {
            const double scale = std::max({1e-3, std::abs(fwd), std::abs(bwd)});
            if (std::abs(fwd - bwd) > 0.08 * scale) {
                ++kinks;  // non-smooth at this scale: unusable estimate
                continue;
            }
        }
        ++checked;
        const double denom = std::max(
            {1e-4, std::abs(central), static_cast<double>(std::abs(analytic[i]))});
        EXPECT_NEAR(analytic[i] / denom, central / denom, opt.tolerance)
            << "param " << i << " analytic=" << analytic[i] << " numeric=" << central;
    }
    EXPECT_GT(checked, opt.samples / 5)
        << "too few checkable coordinates (kinks skipped: " << kinks << ")";
}

// --- smooth models: strict, no kink skipping ---

TEST(GradCheckSmooth, TanhMlpNoSkipping) {
    Xoshiro256 rng(101);
    auto net = std::make_unique<Sequential>();
    net->emplace<Linear>(12, 10);
    net->emplace<Tanh>();
    net->emplace<Linear>(10, 8);
    net->emplace<Sigmoid>();
    net->emplace<Linear>(8, 4);
    ClassifierModel model(std::move(net), rng);
    GradcheckOptions opt;
    opt.skip_kinks = false;
    opt.samples = 60;
    gradcheck(model, random_classifier_batch(3, {12}, 4, 1), opt);
}

TEST(GradCheckSmooth, TanhConvResidualNoSkipping) {
    Xoshiro256 rng(103);
    auto body = std::make_unique<Sequential>();
    body->emplace<Conv2d>(3, 3, 3, 1, 1);
    body->emplace<Tanh>();
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(2, 3, 3, 1, 1);
    net->emplace<Tanh>();
    net->emplace<ResidualBlock>(std::move(body));
    net->emplace<Flatten>();
    net->emplace<Linear>(3 * 6 * 6, 4);
    ClassifierModel model(std::move(net), rng);
    GradcheckOptions opt;
    opt.skip_kinks = false;
    opt.samples = 50;
    gradcheck(model, random_classifier_batch(2, {2, 6, 6}, 4, 2), opt);
}

TEST(GradCheckSmooth, LstmLmNoSkipping) {
    // The LSTM is smooth (sigmoid/tanh gates), so no skipping is needed.
    // eps is larger here: the float32 forward pass carries ~1e-6 absolute
    // loss noise, so the finite difference needs a bigger signal; the
    // smoothness keeps the O(eps^2) truncation error negligible.
    LstmConfig cfg;
    cfg.vocab = 9;
    cfg.embed_dim = 6;
    cfg.hidden_dim = 8;
    auto model = make_lstm_lm(cfg, 23);
    GradcheckOptions opt;
    opt.skip_kinks = false;
    opt.samples = 40;
    opt.tolerance = 3e-2;
    opt.eps = 1e-2f;
    opt.min_grad = 2e-3f;
    gradcheck(*model, random_lm_batch(2, 5, 9, 5), opt);
}

TEST(GradCheckSmooth, TwoLayerLstmNoSkipping) {
    // The paper's LSTM-PTB is 2-layer; the stacked BPTT (inter-layer dx ->
    // dh routing) must survive the same strict check.
    LstmConfig cfg;
    cfg.vocab = 7;
    cfg.embed_dim = 5;
    cfg.hidden_dim = 6;
    cfg.num_layers = 2;
    auto model = make_lstm_lm(cfg, 31);
    GradcheckOptions opt;
    opt.skip_kinks = false;
    opt.samples = 40;
    opt.tolerance = 3e-2;
    opt.eps = 1e-2f;
    opt.min_grad = 2e-3f;
    gradcheck(*model, random_lm_batch(2, 6, 7, 8), opt);
}

TEST(GradCheckSmooth, LstmLmLongerSequenceBpttNoSkipping) {
    LstmConfig cfg;
    cfg.vocab = 6;
    cfg.embed_dim = 4;
    cfg.hidden_dim = 5;
    auto model = make_lstm_lm(cfg, 29);
    GradcheckOptions opt;
    opt.skip_kinks = false;
    opt.samples = 30;
    opt.tolerance = 3e-2;
    opt.eps = 1e-2f;
    opt.min_grad = 2e-3f;
    gradcheck(*model, random_lm_batch(1, 12, 6, 6), opt);
}

// --- the production (ReLU/MaxPool) models: kink-aware ---

TEST(GradCheck, Mlp) {
    auto model = make_mlp({12, {10, 7}, 4}, 11);
    gradcheck(*model, random_classifier_batch(3, {12}, 4, 1), {});
}

TEST(GradCheck, MlpSingleSample) {
    auto model = make_mlp({6, {5}, 3}, 13);
    GradcheckOptions opt;
    opt.samples = 30;
    gradcheck(*model, random_classifier_batch(1, {6}, 3, 2), opt);
}

TEST(GradCheck, MiniVgg) {
    MiniVggConfig cfg;
    cfg.image_size = 8;
    cfg.conv_channels = 3;
    cfg.fc_dim = 16;
    cfg.classes = 4;
    auto model = make_mini_vgg(cfg, 17);
    GradcheckOptions opt;
    opt.tolerance = 3e-2;
    gradcheck(*model, random_classifier_batch(2, {3, 8, 8}, 4, 3), opt);
}

TEST(GradCheck, MiniResNet) {
    // The residual net has the densest kink structure (ReLU + MaxPool at
    // every block); an eps sweep (see repo history) shows the numeric
    // estimate converges to the analytic gradient as eps -> 0, so this
    // check uses a small eps and only large-magnitude coordinates where
    // the float32 noise floor is relatively harmless.
    MiniResNetConfig cfg;
    cfg.image_size = 8;
    cfg.channels = 4;
    cfg.blocks = 2;
    cfg.classes = 3;
    auto model = make_mini_resnet(cfg, 19);
    GradcheckOptions opt;
    opt.tolerance = 3e-2;
    opt.eps = 5e-4f;
    opt.min_grad = 5e-2f;
    opt.samples = 25;
    gradcheck(*model, random_classifier_batch(2, {3, 8, 8}, 3, 4), opt);
}

}  // namespace
