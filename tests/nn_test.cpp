// Forward-semantics tests for the nn substrate (shapes, known values,
// mode behavior). Gradient correctness lives in nn_gradcheck_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/classifier_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool2d.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk::nn;
using gtopk::util::Xoshiro256;

TEST(TensorTest, ShapeAndNumel) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.rank(), 3u);
    EXPECT_EQ(t.dim(1), 3);
    for (auto v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, ReshapePreservesData) {
    Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.at2(2, 1), 6.0f);
    EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(TensorTest, RejectsMismatchedData) {
    EXPECT_THROW(Tensor({2, 2}, {1.0f}), std::invalid_argument);
    EXPECT_THROW(Tensor({-1}), std::invalid_argument);
}

TEST(TensorTest, IndexedAccess) {
    Tensor t({2, 2});
    t.at2(1, 0) = 5.0f;
    EXPECT_EQ(t[2], 5.0f);
    Tensor u({1, 2, 2, 2});
    u.at4(0, 1, 1, 1) = 3.0f;
    EXPECT_EQ(u[7], 3.0f);
}

/// Overwrite a parameter's values.
void assign_values(Param* p, std::initializer_list<float> v) {
    ASSERT_EQ(p->value.size(), v.size());
    std::ranges::copy(v, p->value.begin());
}

TEST(LinearTest, ComputesAffineMap) {
    Xoshiro256 rng(1);
    Linear lin(2, 3);
    const ParamArena lin_params = bind_params(lin, rng);
    std::vector<Param*> params;
    lin.collect_params(params);
    ASSERT_EQ(params.size(), 2u);
    // Overwrite with known weights: W = [[1,2],[3,4],[5,6]], b = [.1,.2,.3]
    assign_values(params[0], {1, 2, 3, 4, 5, 6});
    assign_values(params[1], {0.1f, 0.2f, 0.3f});
    Tensor x({1, 2}, {10, 20});
    Tensor y = lin.forward(x, false);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 50.1f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 110.2f);
    EXPECT_FLOAT_EQ(y.at2(0, 2), 170.3f);
}

TEST(LinearTest, RejectsWrongInputShape) {
    Xoshiro256 rng(1);
    Linear lin(4, 2);
    const ParamArena lin_params = bind_params(lin, rng);
    Tensor bad({1, 3});
    EXPECT_THROW(lin.forward(bad, false), std::invalid_argument);
}

TEST(LinearTest, BackwardRejectsMissingOrMismatchedForward) {
    Xoshiro256 rng(1);
    Linear lin(4, 3);
    const ParamArena lin_params = bind_params(lin, rng);
    EXPECT_THROW(lin.backward(Tensor({2, 3})), std::invalid_argument);  // no forward yet
    lin.forward(Tensor({2, 4}), true);
    EXPECT_THROW(lin.backward(Tensor({3, 3})), std::invalid_argument);  // batch 3 vs 2
    EXPECT_THROW(lin.backward(Tensor({1, 3})), std::invalid_argument);
    EXPECT_THROW(lin.backward(Tensor({6})), std::invalid_argument);
    lin.forward(Tensor({5, 4}), false);  // eval forward: the cache stays batch 2
    EXPECT_THROW(lin.backward(Tensor({5, 3})), std::invalid_argument);
    EXPECT_EQ(lin.backward(Tensor({2, 3})).shape(), (std::vector<std::int64_t>{2, 4}));
}

TEST(ActivationTest, ReluClampsNegatives) {
    ReLU relu;
    Tensor x({1, 4}, {-1, 0, 2, -3});
    Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.data()[0], 0.0f);
    EXPECT_EQ(y.data()[2], 2.0f);
    Tensor dy({1, 4}, {1, 1, 1, 1});
    Tensor dx = relu.backward(dy);
    EXPECT_EQ(dx.data()[0], 0.0f);  // gradient blocked where x <= 0
    EXPECT_EQ(dx.data()[2], 1.0f);
}

TEST(ActivationTest, BackwardRejectsMissingOrMismatchedForward) {
    ReLU relu;
    Tanh tanh_layer;
    Sigmoid sig;
    for (Layer* layer : std::initializer_list<Layer*>{&relu, &tanh_layer, &sig}) {
        EXPECT_THROW(layer->backward(Tensor({1, 4})), std::invalid_argument)
            << layer->name();
        layer->forward(Tensor({1, 4}), true);
        EXPECT_THROW(layer->backward(Tensor({1, 5})), std::invalid_argument)
            << layer->name();
        EXPECT_THROW(layer->backward(Tensor({2, 4})), std::invalid_argument)
            << layer->name();
        EXPECT_EQ(layer->backward(Tensor({1, 4})).numel(), 4) << layer->name();
    }
}

TEST(ActivationTest, TanhAndSigmoidValues) {
    Tanh tanh_layer;
    Sigmoid sig;
    Tensor x({1, 1}, {0.5f});
    EXPECT_NEAR(tanh_layer.forward(x, false).data()[0], std::tanh(0.5f), 1e-6f);
    EXPECT_NEAR(sig.forward(x, false).data()[0], 1.0f / (1.0f + std::exp(-0.5f)),
                1e-6f);
}

TEST(FlattenTest, CollapsesTrailingDims) {
    Flatten f;
    Tensor x({2, 3, 4, 4});
    Tensor y = f.forward(x, true);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 48}));
    Tensor dy({2, 48});
    EXPECT_EQ(f.backward(dy).shape(), x.shape());
}

TEST(Conv2dTest, IdentityKernelPreservesInput) {
    Xoshiro256 rng(2);
    Conv2d conv(1, 1, 3, 1, 1);
    const ParamArena conv_params = bind_params(conv, rng);
    std::vector<Param*> params;
    conv.collect_params(params);
    // 3x3 kernel with 1 at center: identity under padding=1.
    assign_values(params[0], {0, 0, 0, 0, 1, 0, 0, 0, 0});
    assign_values(params[1], {0});
    Tensor x({1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), x.shape());
    for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dTest, KnownSmallConvolution) {
    Xoshiro256 rng(2);
    Conv2d conv(1, 1, 2, 1, 0);
    const ParamArena conv_params = bind_params(conv, rng);
    std::vector<Param*> params;
    conv.collect_params(params);
    assign_values(params[0], {1, 2, 3, 4});
    assign_values(params[1], {0.5f});
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 1 * 1 + 2 * 2 + 3 * 3 + 4 * 4 + 0.5f);
}

TEST(Conv2dTest, StrideShrinksOutput) {
    Xoshiro256 rng(2);
    Conv2d conv(3, 5, 3, 2, 1);
    const ParamArena conv_params = bind_params(conv, rng);
    Tensor x({2, 3, 8, 8});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 5, 4, 4}));
}

TEST(Conv2dTest, BackwardRejectsMissingOrMismatchedForward) {
    Xoshiro256 rng(2);
    Conv2d conv(2, 3, 3, 1, 1);
    const ParamArena conv_params = bind_params(conv, rng);
    EXPECT_THROW(conv.backward(Tensor({2, 3, 4, 4})), std::invalid_argument);  // no forward
    conv.forward(Tensor({2, 2, 4, 4}), true);
    // A smaller dy would be read past its end, a larger one ignored.
    EXPECT_THROW(conv.backward(Tensor({1, 3, 4, 4})), std::invalid_argument);
    EXPECT_THROW(conv.backward(Tensor({3, 3, 4, 4})), std::invalid_argument);
    EXPECT_THROW(conv.backward(Tensor({2, 3, 4, 3})), std::invalid_argument);
    conv.forward(Tensor({1, 2, 4, 4}), false);  // eval forward: the cache stays batch 2
    EXPECT_THROW(conv.backward(Tensor({1, 3, 4, 4})), std::invalid_argument);
    EXPECT_EQ(conv.backward(Tensor({2, 3, 4, 4})).shape(),
              (std::vector<std::int64_t>{2, 2, 4, 4}));
}

TEST(MaxPoolTest, PicksWindowMaxAndRoutesGradient) {
    MaxPool2d pool(2);
    Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
    Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    Tensor dy({1, 1, 1, 1}, {10.0f});
    Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx[1], 10.0f);  // only the argmax receives gradient
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(MaxPoolTest, BackwardRejectsMissingOrMismatchedForward) {
    MaxPool2d pool(2);
    EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1})), std::invalid_argument);
    pool.forward(Tensor({1, 2, 4, 4}), true);
    EXPECT_THROW(pool.backward(Tensor({1, 2, 1, 1})), std::invalid_argument);
    EXPECT_THROW(pool.backward(Tensor({1, 1, 2, 2})), std::invalid_argument);
    EXPECT_THROW(pool.backward(Tensor({2, 2, 2, 2})), std::invalid_argument);
    EXPECT_EQ(pool.backward(Tensor({1, 2, 2, 2})).shape(),
              (std::vector<std::int64_t>{1, 2, 4, 4}));
}

TEST(MaxPoolTest, RejectsIndivisibleDims) {
    MaxPool2d pool(2);
    Tensor x({1, 1, 3, 3});
    EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
}

TEST(DropoutTest, EvalModeIsIdentity) {
    Dropout drop(0.5f, 1);
    Tensor x({1, 100});
    x.fill(1.0f);
    Tensor y = drop.forward(x, false);
    for (auto v : y.data()) EXPECT_EQ(v, 1.0f);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
    Dropout drop(0.5f, 1);
    Tensor x({1, 10000});
    x.fill(1.0f);
    Tensor y = drop.forward(x, true);
    int zeros = 0;
    double sum = 0;
    for (auto v : y.data()) {
        if (v == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0f);  // 1/(1-p)
        }
        sum += v;
    }
    EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
    EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);  // inverted dropout preserves mean
}

TEST(ResidualTest, AddsSkipConnection) {
    auto body = std::make_unique<Sequential>();
    // Empty body: y = x + x.
    ResidualBlock block(std::move(body));
    Tensor x({1, 3}, {1, 2, 3});
    Tensor y = block.forward(x, true);
    EXPECT_FLOAT_EQ(y.data()[1], 4.0f);
    Tensor dy({1, 3}, {1, 1, 1});
    Tensor dx = block.backward(dy);
    EXPECT_FLOAT_EQ(dx.data()[0], 2.0f);
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
    // Uniform logits over C classes -> loss = log(C).
    Tensor logits({2, 4});
    std::vector<std::int32_t> labels{0, 3};
    const LossResult lr = softmax_cross_entropy(logits, labels);
    EXPECT_NEAR(lr.loss, std::log(4.0f), 1e-5f);
    // Gradient: (p - onehot)/N with p = 1/4.
    EXPECT_NEAR(lr.dlogits.at2(0, 0), (0.25f - 1.0f) / 2.0f, 1e-6f);
    EXPECT_NEAR(lr.dlogits.at2(0, 1), 0.25f / 2.0f, 1e-6f);
}

TEST(LossTest, GradientRowsSumToZero) {
    Tensor logits({3, 5}, {1, 2, 3, 4, 5, -1, 0, 1, 0, -1, 2, 2, 2, 2, 2});
    std::vector<std::int32_t> labels{2, 0, 4};
    const LossResult lr = softmax_cross_entropy(logits, labels);
    for (std::int64_t i = 0; i < 3; ++i) {
        float row_sum = 0;
        for (std::int64_t j = 0; j < 5; ++j) row_sum += lr.dlogits.at2(i, j);
        EXPECT_NEAR(row_sum, 0.0f, 1e-6f);
    }
}

TEST(LossTest, RejectsBadLabels) {
    Tensor logits({1, 3});
    std::vector<std::int32_t> labels{5};
    EXPECT_THROW(softmax_cross_entropy(logits, labels), std::invalid_argument);
}

TEST(LossTest, MseKnownValue) {
    Tensor out({1, 2}, {1.0f, 3.0f});
    Tensor target({1, 2}, {0.0f, 0.0f});
    const LossResult lr = mse_loss(out, target);
    EXPECT_FLOAT_EQ(lr.loss, 5.0f);
    EXPECT_FLOAT_EQ(lr.dlogits.data()[1], 3.0f);  // 2*d/n = 2*3/2
}

TEST(LossTest, AccuracyCountsArgmax) {
    Tensor logits({2, 3}, {0, 5, 0, 1, 0, 0});
    std::vector<std::int32_t> labels{1, 2};
    EXPECT_DOUBLE_EQ(accuracy(logits, labels), 0.5);
}

TEST(ModelZoo, MiniVggDropoutVariantTrains) {
    MiniVggConfig cfg;
    cfg.image_size = 8;
    cfg.conv_channels = 3;
    cfg.fc_dim = 32;
    cfg.dropout = 0.3f;
    auto model = make_mini_vgg(cfg, 5);
    // Dropout layers carry no parameters.
    EXPECT_EQ(model->num_params(), make_mini_vgg([&] {
                                       auto c = cfg;
                                       c.dropout = 0.0f;
                                       return c;
                                   }(),
                                                 5)
                                       ->num_params());
    Batch batch;
    batch.x = Tensor({2, 3, 8, 8});
    batch.x.fill(0.3f);
    batch.targets = {1, 4};
    const double first = model->train_step_gradients(batch);
    EXPECT_TRUE(std::isfinite(first));
    // Eval mode is deterministic (no masks): two eval losses agree.
    EXPECT_EQ(model->eval_loss(batch), model->eval_loss(batch));
}

TEST(ModelZoo, FactoriesAreDeterministic) {
    const auto a = make_mini_vgg({}, 7);
    const auto b = make_mini_vgg({}, 7);
    const auto c = make_mini_vgg({}, 8);
    EXPECT_EQ(a->flat_params(), b->flat_params());
    EXPECT_NE(a->flat_params(), c->flat_params());
}

TEST(ModelZoo, ParamCountsArePositiveAndStable) {
    EXPECT_GT(make_mlp({}, 1)->num_params(), 0u);
    EXPECT_GT(make_mini_vgg({}, 1)->num_params(), 0u);
    EXPECT_GT(make_mini_resnet({}, 1)->num_params(), 0u);
    EXPECT_GT(make_lstm_lm({}, 1)->num_params(), 0u);
    // Same config -> same structure.
    EXPECT_EQ(make_mini_resnet({}, 1)->num_params(), make_mini_resnet({}, 2)->num_params());
}

TEST(ModelInterface, FlatRoundTrip) {
    auto model = make_mlp({8, {4}, 3}, 3);
    auto w = model->flat_params();
    ASSERT_EQ(w.size(), model->num_params());
    for (auto& x : w) x += 1.0f;
    model->set_flat_params(w);
    EXPECT_EQ(model->flat_params(), w);
    std::vector<float> delta(w.size(), 0.5f);
    model->axpy_params(1.0f, delta);
    EXPECT_FLOAT_EQ(model->flat_params()[0], w[0] + 0.5f);
    EXPECT_THROW(model->set_flat_params(std::span(w).first(3)), std::invalid_argument);
}

/// Every parameter tensor is a slice of the values arena and the same
/// slice of the gradient arena, back to back in params() order.
void expect_params_tile_the_arenas(const TrainableModel& model) {
    const std::span<float> values = model.values();
    const std::span<float> grads = model.grads();
    ASSERT_EQ(values.size(), model.num_params());
    ASSERT_EQ(grads.size(), model.num_params());
    ASSERT_GT(model.params().size(), 1u);
    // The two arenas are disjoint.
    EXPECT_TRUE(values.data() + values.size() <= grads.data() ||
                grads.data() + grads.size() <= values.data());
    std::size_t off = 0;
    for (const ParamView& p : model.params()) {
        EXPECT_EQ(p.value.data(), values.data() + off) << p.name;
        EXPECT_EQ(p.grad.data(), grads.data() + off) << p.name;
        EXPECT_EQ(p.grad.size(), p.value.size()) << p.name;
        EXPECT_FALSE(p.value.empty()) << p.name;
        off += p.value.size();
    }
    EXPECT_EQ(off, model.num_params());
}

TEST(ModelArena, ParamsTileBothArenasInOrderForEveryZooModel) {
    expect_params_tile_the_arenas(*make_mlp({}, 1));
    expect_params_tile_the_arenas(*make_mini_vgg({}, 1));
    MiniResNetConfig resnet;
    resnet.batch_norm = true;
    expect_params_tile_the_arenas(*make_mini_resnet(resnet, 1));
    expect_params_tile_the_arenas(*make_lstm_lm({.num_layers = 2}, 1));
}

TEST(ModelArena, TrainStepWritesTheGradientArenaThroughTheLayers) {
    MiniResNetConfig cfg;
    cfg.batch_norm = true;
    auto model = make_mini_resnet(cfg, 2);
    Batch batch;
    batch.x = Tensor({2, cfg.in_channels, cfg.image_size, cfg.image_size});
    for (std::int64_t i = 0; i < batch.x.numel(); ++i) {
        batch.x[static_cast<std::size_t>(i)] = static_cast<float>(i % 13) * 0.1f - 0.6f;
    }
    batch.targets = {1, 3};
    std::ranges::fill(model->grads(), 7.0f);  // train_step_gradients zeroes first
    model->train_step_gradients(batch);
    // The whole arena was zeroed, and the layers' backward passes, the
    // BatchNorms' included, accumulated into their own slices of it.
    EXPECT_TRUE(std::ranges::none_of(model->grads(), [](float g) { return g == 7.0f; }));
    int checked = 0;
    for (const ParamView& p : model->params()) {
        if (p.name != "bn.gamma" && p.name != "linear.w") continue;
        ++checked;
        EXPECT_TRUE(std::ranges::any_of(p.grad, [](float g) { return g != 0.0f; }))
            << p.name;
    }
    EXPECT_EQ(checked, 6);  // five BatchNorms and the head
}

/// A forwarding model built the way a decorator is: default-constructed
/// base, then a copy of the wrapped model's params().
class ForwardingModel final : public TrainableModel {
public:
    explicit ForwardingModel(std::unique_ptr<TrainableModel> inner)
        : inner_(std::move(inner)) {
        params_ = inner_->params();
    }
    double train_step_gradients(const Batch& batch) override {
        return inner_->train_step_gradients(batch);
    }
    double eval_loss(const Batch& batch) override { return inner_->eval_loss(batch); }
    double eval_accuracy(const Batch& batch) override {
        return inner_->eval_accuracy(batch);
    }
    const TrainableModel& inner() const { return *inner_; }

private:
    std::unique_ptr<TrainableModel> inner_;
};

TEST(ModelArena, FlatWritesThroughAForwardingModelReachTheWrappedModel) {
    ForwardingModel outer(make_mlp({8, {4}, 3}, 3));
    const TrainableModel& inner = outer.inner();
    EXPECT_EQ(outer.values().data(), inner.values().data());
    EXPECT_EQ(outer.grads().data(), inner.grads().data());
    ASSERT_EQ(outer.num_params(), inner.num_params());

    std::vector<float> w = outer.flat_params();
    for (float& x : w) x = -x + 0.25f;
    outer.set_flat_params(w);
    EXPECT_EQ(inner.flat_params(), w);

    const std::vector<float> x(w.size(), 2.0f);
    outer.axpy_params(0.5f, x);
    std::vector<float> v(w.size(), 1.0f);
    outer.momentum_axpy_params(0.5f, v, x, -1.0f);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = (w[i] + 0.5f * 2.0f) - 2.5f;
    EXPECT_EQ(inner.flat_params(), w);

    Batch batch;
    batch.x = Tensor({2, 8});
    batch.x.fill(0.1f);
    batch.targets = {0, 2};
    outer.train_step_gradients(batch);
    std::vector<float> sum(w.size(), 0.0f);
    outer.accumulate_grads_into(sum);
    EXPECT_EQ(sum, inner.flat_grads());
}

TEST(ModelInterface, TrainStepFillsGradients) {
    auto model = make_mlp({8, {4}, 3}, 3);
    Batch batch;
    batch.x = Tensor({2, 8});
    batch.x.fill(0.1f);
    batch.targets = {0, 2};
    const float loss = model->train_step_gradients(batch);
    EXPECT_GT(loss, 0.0f);
    const auto grads = model->flat_grads();
    double norm = 0;
    for (float g : grads) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
}

// Flat spans of every length mod 4 (the vector lanes' scalar tails).
constexpr std::size_t kAwkwardLengths[] = {8, 9, 10, 11, 1, 2, 3, 4, 37};

/// Normal values mixed with +-0.0f and subnormals.
float awkward_value(std::size_t i, std::uint64_t salt, Xoshiro256& rng) {
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float sign = ((i + salt) & 2) ? -1.0f : 1.0f;
    switch ((i + salt) % 6) {
        case 0: return -0.0f;
        case 1: return 0.0f;
        case 2: return sign * static_cast<float>(i % 97 + 1) * tiny;
        case 3: return sign * std::numeric_limits<float>::min() * 0.75f;
        default: return static_cast<float>(rng.next_gaussian());
    }
}

std::vector<float> awkward_flat(std::size_t m, std::uint64_t salt) {
    Xoshiro256 rng(salt);
    std::vector<float> v(m);
    for (std::size_t i = 0; i < m; ++i) v[i] = awkward_value(i, salt, rng);
    return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(FlatUpdate, MomentumAxpyMatchesTheScalarLoopsBitForBit) {
    for (const std::size_t n : kAwkwardLengths) {
        for (const float mom : {0.9f, 0.0f, 1.0f}) {
            for (const float a : {-0.05f, -6e-5f, 0.0f}) {
                std::vector<float> w_got = awkward_flat(n, 1);
                std::vector<float> w_want = w_got;
                std::vector<float> v_got = awkward_flat(n, 2);  // subnormal velocities
                std::vector<float> v_want = v_got;
                std::vector<float> u = awkward_flat(n, 3);
                // Zero updates.
                for (std::size_t i = 0; i < u.size(); i += 3) u[i] = 0.0f;
                // The two loops the fused pass replaces, with its snap of
                // velocities below FLT_MIN to +0.
                for (std::size_t i = 0; i < n; ++i) {
                    v_want[i] = mom * v_want[i] + u[i];
                    if (std::fabs(v_want[i]) < std::numeric_limits<float>::min()) {
                        v_want[i] = 0.0f;
                    }
                }
                for (std::size_t i = 0; i < n; ++i) w_want[i] += a * v_want[i];
                momentum_axpy_values(w_got, mom, v_got, u, a);
                EXPECT_TRUE(same_bits(v_got, v_want))
                    << "n=" << n << " mom=" << mom << " a=" << a;
                EXPECT_TRUE(same_bits(w_got, w_want))
                    << "n=" << n << " mom=" << mom << " a=" << a;
            }
        }
    }
}

TEST(FlatUpdate, MomentumAxpySnapsSubnormalVelocitiesToPositiveZero) {
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float fmin = std::numeric_limits<float>::min();
    const float mom = 0.9f;
    const float a = -0.05f;
    const std::size_t m = 17;
    Xoshiro256 rng(7);
    std::vector<float> v(m), u(m, 0.0f);
    std::vector<float> w(m);
    for (std::size_t i = 0; i < m; ++i) {
        w[i] = static_cast<float>(rng.next_gaussian());
        switch (i % 7) {
            case 0: v[i] = 4.0f * tiny; break;  // stuck: 0.9 * 4 tiny rounds back
            case 1: v[i] = -fmin; break;        // decays into the subnormals
            case 2: v[i] = static_cast<float>(rng.next_gaussian()); break;
            case 3: v[i] = -0.0f; u[i] = -0.0f; break;  // -0 snaps to +0 too
            case 4: u[i] = fmin; break;                 // exactly FLT_MIN: kept
            // Normal velocities whose step a*v is subnormal: kept, and the
            // step moves a w below 2^-100.
            case 5: v[i] = 1e-37f; break;
            default: v[i] = -1e-37f; w[i] = 1e-36f; break;
        }
    }
    const std::vector<float> w0 = w;
    const std::vector<float> v0 = v;
    // Two passes of lengths 6 and 11: four-lane bodies with tails of 2 and
    // 3 elements.
    for (const auto& [off, n] : {std::pair<std::size_t, std::size_t>{0, 6}, {6, 11}}) {
        momentum_axpy_values(std::span(w).subspan(off, n), mom,
                             std::span(v).subspan(off, n),
                             std::span<const float>(u).subspan(off, n), a);
    }

    std::size_t snapped = 0;
    for (std::size_t f = 0; f < m; ++f) {
        const float raw = mom * v0[f] + u[f];
        const bool snap = std::fabs(raw) < fmin;
        const float want_v = snap ? 0.0f : raw;
        const float want_w = w0[f] + a * want_v;
        if (snap) {
            ++snapped;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(v[f]), 0u) << "lane " << f;
        } else {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(v[f]),
                      std::bit_cast<std::uint32_t>(raw))
                << "lane " << f;
        }
        EXPECT_EQ(std::bit_cast<std::uint32_t>(w[f]),
                  std::bit_cast<std::uint32_t>(want_w))
            << "lane " << f;
        if (f % 7 == 5) {
            EXPECT_EQ(w[f], w0[f]) << "lane " << f;
        }
        if (f % 7 == 6) {
            EXPECT_NE(w[f], w0[f]) << "lane " << f;
        }
    }
    // Cases 0, 1 and 3 snap, in the four-lane bodies and in the tails
    // (flat 4 and 5 end the first pass, 14 to 16 the second).
    EXPECT_EQ(snapped, 8u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(v[14]), 0u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(v[15]), 0u);
    EXPECT_EQ(v[4], fmin);
}

TEST(FlatUpdate, AxpyMatchesTheScalarLoopBitForBit) {
    for (const std::size_t n : kAwkwardLengths) {
        for (const float a : {-0.05f, 1.0f, -0.0f}) {
            std::vector<float> got = awkward_flat(n, 4);
            std::vector<float> want = got;
            const std::vector<float> x = awkward_flat(n, 5);
            for (std::size_t i = 0; i < n; ++i) want[i] += a * x[i];
            axpy_values(got, a, x);
            EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " a=" << a;
        }
    }
}

/// The dense update a sparse one describes: +0 except at its entries.
std::vector<float> densify(std::size_t n, const std::vector<std::int32_t>& idx,
                           const std::vector<float>& val) {
    std::vector<float> u(n, 0.0f);
    for (std::size_t j = 0; j < idx.size(); ++j) u[static_cast<std::size_t>(idx[j])] = val[j];
    return u;
}

TEST(FlatUpdate, SparseUpdateMatchesTheDenseMeanUpdateBitForBit) {
    // The trainer's gTop-k update: the global selection's entries, scaled,
    // with +0 between them, once scattered into a dense mean update.
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 11u, 37u, 200u}) {
        for (const std::size_t stride : {1u, 2u, 3u, 7u, 1000u}) {
            std::vector<std::int32_t> idx;
            std::vector<float> val;
            const std::vector<float> pool = awkward_flat(n, 11);
            for (std::size_t i = stride / 2 % n; i < n; i += stride) {
                idx.push_back(static_cast<std::int32_t>(i));
                val.push_back(pool[i]);  // signed zeros and subnormals too
            }
            if (stride == 1000) idx.clear(), val.clear();  // an empty selection
            const std::vector<float> u = densify(n, idx, val);
            const SparseUpdate su{idx, val};
            for (const float mom : {0.9f, 0.0f}) {
                for (const float a : {-0.05f, -6e-5f, -0.0f}) {
                    std::vector<float> w_dense = awkward_flat(n, 12);  // -0 weights too
                    std::vector<float> v_dense = awkward_flat(n, 13);
                    std::vector<float> w_sparse = w_dense, v_sparse = v_dense;
                    momentum_axpy_values(w_dense, mom, v_dense, u, a);
                    momentum_axpy_values(w_sparse, mom, v_sparse, su, a);
                    EXPECT_TRUE(same_bits(v_sparse, v_dense))
                        << "n=" << n << " stride=" << stride << " mom=" << mom;
                    EXPECT_TRUE(same_bits(w_sparse, w_dense))
                        << "n=" << n << " stride=" << stride << " a=" << a;

                    // LocalCorrection's plain step: O(nnz), same bits.
                    std::vector<float> x_dense = awkward_flat(n, 14);
                    std::vector<float> x_sparse = x_dense;
                    axpy_values(x_dense, a, u);
                    axpy_values(x_sparse, a, su);
                    EXPECT_TRUE(same_bits(x_sparse, x_dense))
                        << "n=" << n << " stride=" << stride << " a=" << a;
                }
            }
        }
    }
}

TEST(FlatUpdate, SkippedZeroVelocitiesKeepTheBitsOfTheScalarLoops) {
    // A long pass with a sparse update reads chunks of +0 velocities
    // without writing them, and only where the step would rewrite the
    // same bits: finite mom, finite a with its sign bit set.
    const std::size_t n = (std::size_t{1} << 20) + 203;  // past the skip threshold, odd tail
    const float tiny = std::numeric_limits<float>::denorm_min();
    std::vector<float> v0(n, 0.0f);
    for (std::size_t i = 37; i < n; i += 4099) v0[i] = -0.0f;  // -0 must become +0
    for (std::size_t i = 70; i < n; i += 8191) v0[i] = tiny;   // snaps to +0
    for (std::size_t i = 101; i < n; i += 5003) v0[i] = 0.5f;
    v0[n - 2] = -0.0f;
    std::vector<float> w0 = awkward_flat(n, 21);
    for (std::size_t i = 0; i < n; i += 5) w0[i] = -0.0f;  // -0 weights everywhere
    std::vector<std::int32_t> idx;
    std::vector<float> val;
    for (std::size_t i = 130; i < n; i += 7919) {
        idx.push_back(static_cast<std::int32_t>(i));
        val.push_back(i % 3 == 0 ? -0.0f : 0.25f);
    }
    idx.push_back(static_cast<std::int32_t>(n - 1));
    val.push_back(tiny);
    const std::vector<float> u = densify(n, idx, val);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const float mom : {0.9f, -0.5f, inf, nan}) {
        for (const float a : {-0.05f, -0.0f, 0.5f, 0.0f, -inf}) {
            std::vector<float> w_want = w0, v_want = v0;
            for (std::size_t i = 0; i < n; ++i) {
                const float vi = mom * v_want[i] + u[i];
                v_want[i] = std::fabs(vi) < std::numeric_limits<float>::min() ? 0.0f : vi;
                w_want[i] += a * v_want[i];
            }
            std::vector<float> w_list = w0, v_list = v0;
            momentum_axpy_values(w_list, mom, v_list, SparseUpdate{idx, val}, a);
            EXPECT_TRUE(same_bits(v_list, v_want)) << "mom=" << mom << " a=" << a;
            EXPECT_TRUE(same_bits(w_list, w_want)) << "mom=" << mom << " a=" << a;
        }
    }
}

TEST(FlatUpdate, SparseUpdateRejectsUnsortedOrOutOfRangeEntries) {
    std::vector<float> w(10, 1.0f), v(10, 0.0f);
    const std::vector<float> val = {1.0f, 2.0f};
    for (const std::vector<std::int32_t>& idx :
         {std::vector<std::int32_t>{3, 3}, {4, 2}, {1, 10}, {-1, 2}}) {
        EXPECT_THROW(momentum_axpy_values(w, 0.9f, v, SparseUpdate{idx, val}, -1.0f),
                     std::invalid_argument);
    }
    const std::vector<std::int32_t> one = {1};
    EXPECT_THROW(momentum_axpy_values(w, 0.9f, v, SparseUpdate{one, val}, -1.0f),
                 std::invalid_argument);
    EXPECT_THROW(axpy_values(w, -1.0f, SparseUpdate{one, val}), std::invalid_argument);
    const std::vector<std::int32_t> past = {0, 10};
    EXPECT_THROW(axpy_values(w, -1.0f, SparseUpdate{past, val}), std::invalid_argument);
}

TEST(FlatUpdate, ModelMomentumAxpyUpdatesParamsAndVelocity) {
    auto model = make_mlp({8, {4}, 3}, 3);
    const std::vector<float> w0 = model->flat_params();
    std::vector<float> v(model->num_params(), 1.0f);
    const std::vector<float> u(model->num_params(), 0.5f);
    model->momentum_axpy_params(0.5f, v, u, -2.0f);
    EXPECT_EQ(v[0], 1.0f);  // 0.5 * 1 + 0.5
    EXPECT_EQ(model->flat_params()[0], w0[0] - 2.0f);
    std::vector<float> short_v(v.size() - 1, 0.0f);
    EXPECT_THROW(model->momentum_axpy_params(0.5f, short_v, u, -2.0f),
                 std::invalid_argument);
    EXPECT_THROW(model->momentum_axpy_params(0.5f, v, std::span(u).first(3), -2.0f),
                 std::invalid_argument);
}

}  // namespace
