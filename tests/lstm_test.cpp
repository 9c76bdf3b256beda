// Behavioral tests of the LSTM language model (gradient correctness is in
// nn_gradcheck_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "data/sequence_data.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using nn::Batch;
using nn::LstmConfig;
using nn::make_lstm_lm;

Batch make_batch(const data::SequenceDataset& ds, std::int64_t n, std::int64_t base) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = 0; i < n; ++i) idx.push_back(base + i);
    return ds.batch(idx);
}

TEST(LstmLm, InitialLossIsNearUniform) {
    LstmConfig cfg{.vocab = 16, .embed_dim = 8, .hidden_dim = 12};
    auto model = make_lstm_lm(cfg, 1);
    data::SequenceDataset ds({.vocab = 16, .seq_len = 8}, 2);
    const float loss = model->eval_loss(make_batch(ds, 8, 0));
    EXPECT_NEAR(loss, std::log(16.0f), 0.5f);
}

TEST(LstmLm, SgdReducesLossOnMarkovData) {
    LstmConfig cfg{.vocab = 12, .embed_dim = 8, .hidden_dim = 16};
    auto model = make_lstm_lm(cfg, 3);
    data::SequenceDataset ds({.vocab = 12, .seq_len = 10, .peakedness = 10.0}, 4);
    const float initial = model->eval_loss(make_batch(ds, 16, 5000));
    for (int step = 0; step < 120; ++step) {
        (void)model->train_step_gradients(make_batch(ds, 8, step * 8));
        model->axpy_params(-0.5f, model->grads());
    }
    const float trained = model->eval_loss(make_batch(ds, 16, 5000));
    EXPECT_LT(trained, initial - 0.2f)
        << "LSTM failed to learn Markov structure: " << initial << " -> " << trained;
    // The chain is genuinely predictable, so loss should drop clearly
    // below the uniform log(V) = 2.48 level.
    EXPECT_LT(trained, std::log(12.0f) - 0.2f);
}

TEST(LstmLm, DeterministicTraining) {
    LstmConfig cfg{.vocab = 8, .embed_dim = 4, .hidden_dim = 6};
    data::SequenceDataset ds({.vocab = 8, .seq_len = 6}, 7);
    auto run = [&] {
        auto model = make_lstm_lm(cfg, 9);
        for (int step = 0; step < 10; ++step) {
            (void)model->train_step_gradients(make_batch(ds, 4, step * 4));
            model->axpy_params(-0.1f, model->grads());
        }
        return model->flat_params();
    };
    EXPECT_EQ(run(), run());
}

TEST(LstmLm, RejectsMalformedBatches) {
    auto model = make_lstm_lm({.vocab = 8, .embed_dim = 4, .hidden_dim = 4}, 1);
    Batch bad;
    bad.x = nn::Tensor({2, 3});
    bad.x.fill(99.0f);  // token out of vocab
    bad.targets.assign(6, 0);
    EXPECT_THROW(model->train_step_gradients(bad), std::invalid_argument);

    Batch wrong_targets;
    wrong_targets.x = nn::Tensor({2, 3});
    wrong_targets.targets.assign(2, 0);  // needs N*T = 6
    EXPECT_THROW(model->train_step_gradients(wrong_targets), std::invalid_argument);
}

TEST(LstmLm, TwoLayerModelTrainsAndHasMoreParams) {
    LstmConfig one{.vocab = 10, .embed_dim = 8, .hidden_dim = 16, .num_layers = 1};
    LstmConfig two = one;
    two.num_layers = 2;
    auto m1 = make_lstm_lm(one, 3);
    auto m2 = make_lstm_lm(two, 3);
    EXPECT_GT(m2->num_params(), m1->num_params());

    data::SequenceDataset ds({.vocab = 10, .seq_len = 8, .peakedness = 10.0}, 4);
    // Deep stacks train slowly under plain SGD; use heavy-ball momentum
    // like every trainer in this repo does.
    const float initial = m2->eval_loss(make_batch(ds, 16, 5000));
    std::vector<float> velocity(m2->num_params(), 0.0f);
    for (int step = 0; step < 350; ++step) {
        (void)m2->train_step_gradients(make_batch(ds, 6, step * 6));
        const std::span<const float> g = m2->grads();
        for (std::size_t i = 0; i < g.size(); ++i) {
            velocity[i] = 0.6f * velocity[i] + g[i];
        }
        m2->axpy_params(-0.5f, velocity);
    }
    EXPECT_LT(m2->eval_loss(make_batch(ds, 16, 5000)), initial - 0.15f);
}

TEST(LstmLm, RejectsZeroLayers) {
    EXPECT_THROW(make_lstm_lm({.vocab = 8, .embed_dim = 4, .hidden_dim = 4,
                               .num_layers = 0},
                              1),
                 std::invalid_argument);
}

TEST(LstmLm, AccuracyBeatsChanceAfterTraining) {
    LstmConfig cfg{.vocab = 10, .embed_dim = 8, .hidden_dim = 16};
    auto model = make_lstm_lm(cfg, 5);
    data::SequenceDataset ds({.vocab = 10, .seq_len = 8, .peakedness = 12.0}, 6);
    for (int step = 0; step < 150; ++step) {
        (void)model->train_step_gradients(make_batch(ds, 8, step * 8));
        model->axpy_params(-0.5f, model->grads());
    }
    const double acc = model->eval_accuracy(make_batch(ds, 32, 6000));
    EXPECT_GT(acc, 0.2);  // chance is 0.1
}

}  // namespace
