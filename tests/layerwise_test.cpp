// Layer-wise gTop-k (the paper's Sec. VII future work): trainer behavior
// and the WFBP-style overlap model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "collectives/cost_model.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "perfmodel/overlap_model.hpp"
#include "train/trainer.hpp"

namespace {

using namespace gtopk;
using comm::NetworkModel;
using train::Algorithm;
using train::TrainConfig;

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
              321),
          sampler(8192, 1024, world, 5) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {48, 24};
    }
};

train::TrainResult run(int world, const TrainConfig& config, const Harness& h) {
    return train::train_distributed(
        world, NetworkModel::free(), config,
        [cfg = h.mlp](std::uint64_t seed) { return nn::make_mlp(cfg, seed); },
        [&](std::int64_t step, int rank) {
            return h.dataset.batch_flat(h.sampler.batch_indices(step, rank, 16));
        },
        [&] { return h.dataset.batch_flat(h.sampler.test_indices(256)); });
}

TEST(LayerwiseTrainer, ConvergesLikeGlobalGtopk) {
    Harness h(4);
    TrainConfig layerwise;
    layerwise.algorithm = Algorithm::LayerwiseGtopkSsgd;
    layerwise.epochs = 6;
    layerwise.iters_per_epoch = 30;
    layerwise.lr = 0.05f;
    layerwise.density = 0.02;
    TrainConfig global = layerwise;
    global.algorithm = Algorithm::GtopkSsgd;

    const auto rl = run(4, layerwise, h);
    const auto rg = run(4, global, h);
    EXPECT_LT(rl.epochs.back().train_loss, rl.epochs.front().train_loss);
    EXPECT_GT(rl.epochs.back().val_accuracy, 0.3);
    // Same ballpark as the global variant.
    EXPECT_NEAR(rl.epochs.back().train_loss, rg.epochs.back().train_loss, 0.5);
}

TEST(LayerwiseTrainer, DeterministicAcrossRuns) {
    Harness h(2);
    TrainConfig config;
    config.algorithm = Algorithm::LayerwiseGtopkSsgd;
    config.epochs = 2;
    config.iters_per_epoch = 8;
    config.density = 0.05;
    const auto a = run(2, config, h);
    const auto b = run(2, config, h);
    EXPECT_EQ(a.final_params, b.final_params);
}

TEST(LayerwiseTrainer, SendsMoreMessagesButSimilarBytes) {
    // One aggregation per parameter tensor -> more messages (latency), but
    // the payload volume is comparable to the global variant.
    Harness h(4);
    TrainConfig layerwise;
    layerwise.algorithm = Algorithm::LayerwiseGtopkSsgd;
    layerwise.epochs = 1;
    layerwise.iters_per_epoch = 10;
    layerwise.density = 0.02;
    TrainConfig global = layerwise;
    global.algorithm = Algorithm::GtopkSsgd;
    const auto rl = run(4, layerwise, h);
    const auto rg = run(4, global, h);
    EXPECT_GT(rl.rank0_comm.messages_sent, rg.rank0_comm.messages_sent);
    EXPECT_LT(static_cast<double>(rl.rank0_comm.bytes_sent),
              3.0 * static_cast<double>(rg.rank0_comm.bytes_sent));
}

TEST(LayerwiseTrainer, WorksOnNonPowerOfTwoWorld) {
    Harness h(3);
    TrainConfig config;
    config.algorithm = Algorithm::LayerwiseGtopkSsgd;
    config.epochs = 3;
    config.iters_per_epoch = 15;
    config.density = 0.02;
    const auto r = run(3, config, h);
    EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
}

TEST(LayerwiseTrainer, RejectsThresholdSelection) {
    // Per-bucket selection would share the adaptive selector's state and the
    // sampling RNG between buckets, so only exact top-k is accepted.
    Harness h(2);
    TrainConfig config;
    config.algorithm = Algorithm::LayerwiseGtopkSsgd;
    config.epochs = 1;
    config.iters_per_epoch = 2;
    config.selection = sparse::SelectionPolicy::StaticThreshold;
    EXPECT_THROW(run(2, config, h), std::invalid_argument);
}

TEST(LayerwiseTrainer, QuantizesValuesPerBucketWithErrorFeedback) {
    // value_quantizer and check_invariants apply to every bucket: the run
    // trains with the error-feedback check on, and the lossy values move the
    // trajectory away from the fp32 one.
    Harness h(4);
    TrainConfig plain;
    plain.algorithm = Algorithm::LayerwiseGtopkSsgd;
    plain.epochs = 3;
    plain.iters_per_epoch = 15;
    plain.density = 0.02;
    TrainConfig quantized = plain;
    quantized.value_quantizer = quant::Scheme::Uint8MinMax;
    quantized.check_invariants = true;
    const auto rp = run(4, plain, h);
    const auto rq = run(4, quantized, h);
    EXPECT_LT(rq.epochs.back().train_loss, rq.epochs.front().train_loss);
    EXPECT_NE(rq.final_params, rp.final_params);
}

TEST(LayerwiseTrainer, SelectSpanCountsEveryBucket) {
    // One traced step: the select and aggregate spans carry the summed nnz
    // of all per-tensor buckets, k_l = max(1, round(rho * m_l)) each.
    Harness h(2);
    TrainConfig config;
    config.algorithm = Algorithm::LayerwiseGtopkSsgd;
    config.epochs = 1;
    config.iters_per_epoch = 1;
    config.density = 0.02;
    obs::Tracer tracer(2);
    config.tracer = &tracer;
    run(2, config, h);

    std::int64_t expected = 0;
    const auto model = nn::make_mlp(h.mlp, config.model_seed);
    for (const nn::ParamView& p : model->params()) {
        expected += std::max<std::int64_t>(
            1, std::llround(config.density * static_cast<double>(p.value.size())));
    }
    ASSERT_GT(model->params().size(), 1u);
    int seen = 0;
    for (const obs::Span& s : tracer.rank_spans(0)) {
        if (std::strcmp(s.name, "select") == 0 || std::strcmp(s.name, "aggregate") == 0) {
            EXPECT_EQ(s.attrs.nnz, expected) << s.name;
            ++seen;
        }
    }
    EXPECT_EQ(seen, 2);
}

// ---- overlap model ----

TEST(OverlapModel, SerializedTimeIsSumOfSegments) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const std::vector<std::int64_t> segs{1'000'000, 2'000'000, 4'000'000};
    double expect = 0;
    for (auto s : segs) {
        expect += collectives::gtopk_allreduce_time_s(
            net, 16, static_cast<std::uint64_t>(s / 1000));
    }
    EXPECT_NEAR(perfmodel::layerwise_gtopk_comm_time_s(net, 16, segs, 1e-3), expect,
                1e-12);
}

TEST(OverlapModel, BackwardDominatedHidesAllButLastSegment) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const std::vector<std::int64_t> segs{100'000, 100'000, 100'000};
    // Huge backward time: every segment's communication hides behind the
    // remaining backward work EXCEPT the last one's (the first layer's
    // gradient is only ready when backward finishes), so exactly (n-1)/n
    // of the communication is hidden for n equal segments.
    const auto r = perfmodel::overlapped_iteration(net, 8, segs, 1e-3, 0.1, 100.0);
    EXPECT_NEAR(r.hidden_fraction, 2.0 / 3.0, 1e-6);
    const double one_segment_comm =
        collectives::gtopk_allreduce_time_s(net, 8, 100);
    EXPECT_NEAR(r.iteration_s, 0.1 + 100.0 + one_segment_comm, 1e-9);
}

TEST(OverlapModel, NoHidingWhenBackwardIsInstant) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const std::vector<std::int64_t> segs{1'000'000, 1'000'000};
    const auto r = perfmodel::overlapped_iteration(net, 8, segs, 1e-2, 0.0, 0.0);
    EXPECT_NEAR(r.hidden_fraction, 0.0, 1e-9);
    EXPECT_NEAR(r.iteration_s,
                perfmodel::layerwise_gtopk_comm_time_s(net, 8, segs, 1e-2), 1e-9);
}

TEST(OverlapModel, OverlapNeverWorseThanSerial) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const std::vector<std::int64_t> segs{500'000, 50'000, 2'000'000, 10'000};
    for (double tb : {0.0, 0.01, 0.1, 1.0}) {
        const auto r = perfmodel::overlapped_iteration(net, 32, segs, 1e-3, 0.05, tb);
        const double serial =
            0.05 + tb + perfmodel::layerwise_gtopk_comm_time_s(net, 32, segs, 1e-3);
        EXPECT_LE(r.iteration_s, serial + 1e-12) << "tb=" << tb;
        EXPECT_GE(r.hidden_fraction, 0.0);
        EXPECT_LE(r.hidden_fraction, 1.0);
    }
}

TEST(OverlapModel, EmptySegmentsDegenerate) {
    const auto net = NetworkModel::one_gbps_ethernet();
    const auto r = perfmodel::overlapped_iteration(net, 8, {}, 1e-3, 0.2, 0.3);
    EXPECT_NEAR(r.iteration_s, 0.5, 1e-12);
    EXPECT_EQ(r.exposed_comm_s, 0.0);
}

}  // namespace
