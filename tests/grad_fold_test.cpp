// Folded train steps: TrainableModel::train_step_fold must hand a sink every
// gradient element exactly once, with the bits train_step_gradients leaves
// in grads(). Checked on every zoo model, bare (ClassifierModel's folded
// backward, LstmLm's default) and through a forwarding decorator that
// overrides only train_step_gradients (the default's whole-arena fold): the
// residual and the counted top-k of every bucket must equal those of
// train_step_gradients followed by accumulate_counted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "sparse/topk_select.hpp"
#include "train/bucketer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using nn::Batch;
using nn::TrainableModel;

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

private:
    std::unique_ptr<TrainableModel> inner_;
};

struct ModelCase {
    std::string name;
    std::function<std::unique_ptr<TrainableModel>()> make;
    std::function<Batch(std::uint64_t seed)> batch;
};

Batch random_batch(std::vector<std::int64_t> shape, std::int64_t targets,
                   std::int64_t classes, std::uint64_t seed, bool tokens = false) {
    util::Xoshiro256 rng(seed);
    Batch b;
    b.x = nn::Tensor(std::move(shape));
    for (float& v : b.x.data()) {
        v = tokens ? static_cast<float>(rng.next_below(static_cast<std::uint64_t>(classes)))
                   : static_cast<float>(rng.next_gaussian());
    }
    for (std::int64_t i = 0; i < targets; ++i) {
        b.targets.push_back(
            static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(classes))));
    }
    return b;
}

std::vector<ModelCase> model_cases() {
    std::vector<ModelCase> cases;
    // Row lengths 75, 37 and 19: off the 4-lane and 64-entry grids; 5
    // samples leave a 1-sample block in Linear's backward.
    const nn::MlpConfig mlp{.input_dim = 75, .hidden_dims = {37, 19}, .classes = 10};
    cases.push_back({"Mlp", [mlp] { return nn::make_mlp(mlp, 5); },
                     [](std::uint64_t s) { return random_batch({5, 75}, 5, 10, s); }});
    const nn::MiniVggConfig vgg{.image_size = 8, .fc_dim = 33};
    cases.push_back({"MiniVgg", [vgg] { return nn::make_mini_vgg(vgg, 6); },
                     [](std::uint64_t s) { return random_batch({3, 3, 8, 8}, 3, 10, s); }});
    const nn::MiniResNetConfig resnet{.image_size = 8, .batch_norm = true};
    cases.push_back({"MiniResNetBn", [resnet] { return nn::make_mini_resnet(resnet, 7); },
                     [](std::uint64_t s) { return random_batch({3, 3, 8, 8}, 3, 10, s); }});
    const nn::LstmConfig lstm{.vocab = 13, .embed_dim = 6, .hidden_dim = 9, .num_layers = 2};
    cases.push_back({"Lstm2", [lstm] { return nn::make_lstm_lm(lstm, 8); },
                     [](std::uint64_t s) { return random_batch({2, 5}, 10, 13, s, true); }});
    return cases;
}

/// One bucket per parameter tensor, as the layer-wise trainer cuts them.
std::vector<train::GradBucket> tensor_buckets(const TrainableModel& model) {
    std::vector<std::size_t> offsets{0};
    for (const nn::ParamView& p : model.params()) offsets.push_back(offsets.back() + p.value.size());
    return train::fuse_buckets(offsets, 0);
}

std::vector<float> random_residual(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> r(m);
    for (float& v : r) v = static_cast<float>(rng.next_gaussian() * 0.01);
    return r;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class GradFold : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(GradFold, ResidualAndCountedTopkMatchAccumulatingTheGradientArena) {
    const auto [which, forwarded] = GetParam();
    const ModelCase mc = model_cases()[which];
    auto make = [&]() -> std::unique_ptr<TrainableModel> {
        auto m = mc.make();
        if (forwarded) return std::make_unique<ForwardingModel>(std::move(m));
        return m;
    };
    std::unique_ptr<TrainableModel> ref = make();
    std::unique_ptr<TrainableModel> folded = make();
    const std::size_t m = ref->num_params();
    for (const bool per_tensor : {false, true}) {
        const std::vector<train::GradBucket> buckets =
            per_tensor ? tensor_buckets(*ref)
                       : std::vector<train::GradBucket>{{.begin = 0, .end = m}};
        std::vector<sparse::TopkWorkspace> ref_ws(buckets.size()), fold_ws(buckets.size());
        std::vector<float> ref_res = random_residual(m, 3);
        std::vector<float> fold_res = ref_res;
        // Two steps, the parameters moved in between, so the second step's
        // backward sees the state (BatchNorm's running statistics, Linear's
        // scratch rows) the first one left.
        for (int step = 0; step < 2; ++step) {
            const Batch batch = mc.batch(100 + static_cast<std::uint64_t>(step));
            const double ref_loss = ref->train_step_gradients(batch);
            for (std::size_t b = 0; b < buckets.size(); ++b) {
                const std::span<float> r(ref_res.data() + buckets[b].begin, buckets[b].size());
                sparse::begin_count(ref_ws[b], r.size());
                sparse::accumulate_counted(r, 0, ref->grads().subspan(buckets[b].begin, r.size()),
                                           ref_ws[b]);
            }
            // Stale garbage in the arena: a fold must neither read it nor
            // leave it in the residual.
            std::ranges::fill(folded->grads(), 7.0f);
            train::ResidualFold fold(fold_res, buckets, fold_ws);
            fold.begin();
            const double fold_loss = folded->train_step_fold(batch, fold);

            const std::string where = mc.name + (forwarded ? " forwarded" : " bare") +
                                      (per_tensor ? " per-tensor" : " whole") + " step " +
                                      std::to_string(step);
            EXPECT_EQ(fold_loss, ref_loss) << where;
            ASSERT_TRUE(same_bits(fold_res, ref_res)) << where;
            for (std::size_t b = 0; b < buckets.size(); ++b) {
                const std::size_t k = 1 + buckets[b].size() / 20;
                const std::span<float> rr(ref_res.data() + buckets[b].begin, buckets[b].size());
                const std::span<float> fr(fold_res.data() + buckets[b].begin, buckets[b].size());
                sparse::SparseGradient ref_top, fold_top;
                sparse::topk_select_counted(rr, k, ref_ws[b], ref_top);
                sparse::topk_select_counted(fr, k, fold_ws[b], fold_top);
                ASSERT_EQ(fold_top, ref_top) << where << " bucket " << b;
                sparse::zero_selected(rr, ref_top);
                sparse::zero_selected(fr, fold_top);
            }
            ref->axpy_params(-0.05f, ref_res);
            folded->axpy_params(-0.05f, fold_res);
            ASSERT_TRUE(same_bits(folded->values(), ref->values())) << where;
        }
    }
}

/// Counts how often each gradient element reaches it.
class CoverageSink final : public nn::GradSink {
public:
    explicit CoverageSink(std::size_t m) : hits(m, 0) {}
    void fold(std::size_t at, std::span<const float> g) override {
        ASSERT_LE(at + g.size(), hits.size());
        for (std::size_t i = 0; i < g.size(); ++i) ++hits[at + i];
    }
    std::vector<int> hits;
};

TEST_P(GradFold, EveryElementIsFoldedExactlyOnce) {
    const auto [which, forwarded] = GetParam();
    const ModelCase mc = model_cases()[which];
    std::unique_ptr<TrainableModel> model = mc.make();
    if (forwarded) model = std::make_unique<ForwardingModel>(std::move(model));
    CoverageSink sink(model->num_params());
    model->train_step_fold(mc.batch(1), sink);
    EXPECT_EQ(sink.hits, std::vector<int>(model->num_params(), 1)) << mc.name;
}

INSTANTIATE_TEST_SUITE_P(
    ZooModels, GradFold,
    ::testing::Combine(::testing::Range<std::size_t>(0, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, bool>>& info) {
        return model_cases()[std::get<0>(info.param)].name +
               (std::get<1>(info.param) ? "Forwarded" : "Bare");
    });

TEST(ResidualFold, RangesSpanningBucketsSplitAndOverrunsThrow) {
    const std::vector<train::GradBucket> buckets = {
        {.begin = 0, .end = 70}, {.begin = 70, .end = 75}, {.begin = 75, .end = 200}};
    std::vector<sparse::TopkWorkspace> ws(buckets.size());
    std::vector<float> residual(200, 1.0f);
    std::vector<float> g(200);
    for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<float>(i);
    train::ResidualFold fold(residual, buckets, ws);
    fold.begin();
    fold.fold(60, std::span(g).subspan(60, 140));  // buckets 0 (tail), 1 and 2
    fold.fold(0, std::span(g).first(60));
    for (std::size_t i = 0; i < g.size(); ++i) ASSERT_EQ(residual[i], 1.0f + g[i]) << i;
    for (std::size_t b = 0; b < buckets.size(); ++b) EXPECT_EQ(ws[b].counted, buckets[b].size());
    EXPECT_THROW(fold.fold(199, std::span(g).first(2)), std::out_of_range);
    EXPECT_THROW(fold.fold(200, std::span(g).first(1)), std::out_of_range);
}

}  // namespace
