// Distributed trainer tests: every algorithm converges on a learnable
// synthetic task, replicas stay consistent, the error-feedback invariant
// holds, and warmup schedules are honored.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>

#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "train/trainer.hpp"

namespace {

using namespace gtopk;
using comm::NetworkModel;
using train::Algorithm;
using train::TrainConfig;
using train::TrainResult;

struct Harness {
    data::SyntheticImageDataset dataset;
    data::ShardedSampler sampler;
    nn::MlpConfig mlp;
    std::int64_t batch;

    explicit Harness(int world, std::int64_t batch_size = 16)
        : dataset(
              []() {
                  data::SyntheticImageDataset::Config cfg;
                  cfg.image_size = 8;
                  cfg.noise_std = 0.6f;
                  return cfg;
              }(),
              1234),
          sampler(8192, 1024, world, 99),
          batch(batch_size) {
        mlp.input_dim = dataset.feature_dim();
        mlp.hidden_dims = {32, 16};
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
    train::EvalBatchProvider eval_batch() const {
        return [this] { return dataset.batch_flat(sampler.test_indices(256)); };
    }
};

TrainResult run(int world, const TrainConfig& config, const Harness& h) {
    return train::train_distributed(world, NetworkModel::free(), config, h.factory(),
                                    h.train_batches(), h.eval_batch());
}

class AlgorithmSweep : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(All, AlgorithmSweep,
                         ::testing::Values(Algorithm::DenseSsgd, Algorithm::TopkSsgd,
                                           Algorithm::GtopkSsgd,
                                           Algorithm::NaiveGtopkSsgd,
                                           Algorithm::SelectKFromKP,
                                           Algorithm::LayerwiseGtopkSsgd));

TEST_P(AlgorithmSweep, LossDecreasesAndAccuracyBeatsChance) {
    Harness h(4);
    TrainConfig config;
    config.algorithm = GetParam();
    config.epochs = 6;
    config.iters_per_epoch = 30;
    config.lr = 0.05f;
    config.density = 0.02;
    const TrainResult result = run(4, config, h);
    ASSERT_EQ(result.epochs.size(), 6u);
    EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
    EXPECT_GT(result.epochs.back().val_accuracy, 0.3);  // chance = 0.1
}

TEST_P(AlgorithmSweep, InvariantsHoldUnderChecking) {
    Harness h(4);
    TrainConfig config;
    config.algorithm = GetParam();
    config.epochs = 2;
    config.iters_per_epoch = 10;
    config.density = 0.05;
    config.check_invariants = true;  // error feedback + replica consistency
    EXPECT_NO_THROW(run(4, config, h));
}

TEST_P(AlgorithmSweep, DeterministicAcrossRuns) {
    Harness h(2);
    TrainConfig config;
    config.algorithm = GetParam();
    config.epochs = 2;
    config.iters_per_epoch = 8;
    config.density = 0.05;
    const auto a = run(2, config, h);
    const auto b = run(2, config, h);
    EXPECT_EQ(a.final_params, b.final_params);
    EXPECT_EQ(a.epochs.back().train_loss, b.epochs.back().train_loss);
}

TEST(Trainer, GtopkTracksDenseClosely) {
    // The paper's headline convergence claim (Fig. 5): gTop-k S-SGD reaches
    // a final training loss close to dense S-SGD.
    Harness h(4);
    TrainConfig dense;
    dense.algorithm = Algorithm::DenseSsgd;
    dense.epochs = 8;
    dense.iters_per_epoch = 40;
    TrainConfig gtopk = dense;
    gtopk.algorithm = Algorithm::GtopkSsgd;
    gtopk.density = 0.01;
    gtopk.warmup_densities = {0.25, 0.0725, 0.015};
    const auto rd = run(4, dense, h);
    const auto rg = run(4, gtopk, h);
    EXPECT_LT(rg.epochs.back().train_loss,
              rd.epochs.back().train_loss + 0.35)
        << "gTop-k diverged from the dense baseline";
}

TEST(Trainer, WarmupDensitiesAreApplied) {
    Harness h(2);
    TrainConfig config;
    config.algorithm = Algorithm::GtopkSsgd;
    config.epochs = 5;
    config.iters_per_epoch = 4;
    config.density = 0.001;
    config.warmup_densities = {0.25, 0.0725, 0.015, 0.004};
    const auto result = run(2, config, h);
    ASSERT_EQ(result.epochs.size(), 5u);
    EXPECT_DOUBLE_EQ(result.epochs[0].density, 0.25);
    EXPECT_DOUBLE_EQ(result.epochs[1].density, 0.0725);
    EXPECT_DOUBLE_EQ(result.epochs[3].density, 0.004);
    EXPECT_DOUBLE_EQ(result.epochs[4].density, 0.001);
}

TEST(Trainer, SparseAlgorithmsMoveFarFewerBytes) {
    Harness h(4);
    TrainConfig dense;
    dense.algorithm = Algorithm::DenseSsgd;
    dense.epochs = 1;
    dense.iters_per_epoch = 10;
    TrainConfig gtopk = dense;
    gtopk.algorithm = Algorithm::GtopkSsgd;
    gtopk.density = 0.005;
    const auto rd = run(4, dense, h);
    const auto rg = run(4, gtopk, h);
    EXPECT_LT(rg.rank0_comm.bytes_sent, rd.rank0_comm.bytes_sent / 10);
}

TEST(Trainer, GtopkVirtualCommBeatsTopkOnLargeWorld) {
    // Needs the bandwidth-dominated regime: a model big enough (and k big
    // enough) that the AllGather's 2(P-1)k*beta term dominates the tree's
    // extra latency. 16 workers, ~232k params, rho = 0.1 -> k ~ 23k.
    Harness h(16);
    h.mlp.hidden_dims = {512, 256};
    TrainConfig topk;
    topk.algorithm = Algorithm::TopkSsgd;
    topk.epochs = 1;
    topk.iters_per_epoch = 4;
    topk.density = 0.1;
    TrainConfig gtopk = topk;
    gtopk.algorithm = Algorithm::GtopkSsgd;
    auto run_net = [&](const TrainConfig& c) {
        return train::train_distributed(16, NetworkModel::one_gbps_ethernet(), c,
                                        h.factory(), h.train_batches(), nullptr);
    };
    const auto rt = run_net(topk);
    const auto rg = run_net(gtopk);
    EXPECT_LT(rg.mean_comm_virtual_s, rt.mean_comm_virtual_s);
}

TEST(Trainer, MomentumAcceleratesConvergence) {
    Harness h(2);
    TrainConfig with;
    with.algorithm = Algorithm::GtopkSsgd;
    with.epochs = 4;
    with.iters_per_epoch = 25;
    with.density = 0.02;
    with.momentum = 0.9f;
    TrainConfig without = with;
    without.momentum = 0.0f;
    const auto rw = run(2, with, h);
    const auto ro = run(2, without, h);
    EXPECT_LT(rw.epochs.back().train_loss, ro.epochs.back().train_loss + 0.05);
}

TEST(Trainer, SingleWorkerDegeneratesToSgd) {
    Harness h(1);
    TrainConfig config;
    config.algorithm = Algorithm::GtopkSsgd;
    config.epochs = 3;
    config.iters_per_epoch = 30;
    config.density = 0.05;
    const auto result = run(1, config, h);
    EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
}

/// Forwards every call to the wrapped model and overrides nothing else, as
/// a timing decorator does: the trainer drives it through the base class's
/// defaults.
class ForwardingModel final : public nn::TrainableModel {
public:
    explicit ForwardingModel(std::unique_ptr<nn::TrainableModel> inner)
        : inner_(std::move(inner)) {
        params_ = inner_->params();
    }
    double train_step_gradients(const nn::Batch& batch) override {
        return inner_->train_step_gradients(batch);
    }
    double eval_loss(const nn::Batch& batch) override { return inner_->eval_loss(batch); }
    double eval_accuracy(const nn::Batch& batch) override {
        return inner_->eval_accuracy(batch);
    }

private:
    std::unique_ptr<nn::TrainableModel> inner_;
};

/// FNV-1a over the raw bytes of the final parameters and of every epoch's
/// train loss.
std::uint64_t run_hash(const TrainResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    mix(r.final_params.data(), r.final_params.size() * sizeof(float));
    for (const train::EpochMetrics& e : r.epochs) mix(&e.train_loss, sizeof(double));
    return h;
}

struct UpdatePinCase {
    const char* name;
    TrainConfig config;
    std::uint64_t hash;
};

void PrintTo(const UpdatePinCase& pc, std::ostream* os) { *os << pc.name; }

std::vector<UpdatePinCase> update_pin_cases() {
    TrainConfig base;
    base.epochs = 2;
    base.iters_per_epoch = 5;
    base.density = 0.02;
    base.algorithm = Algorithm::GtopkSsgd;
    std::vector<UpdatePinCase> cases;
    cases.push_back({"Gtopk", base, 0xd8ec4719121bf43dull});
    TrainConfig layerwise = base;
    layerwise.algorithm = Algorithm::LayerwiseGtopkSsgd;
    layerwise.overlap = true;
    layerwise.bucket_bytes = 512;
    cases.push_back({"LayerwiseOverlap", layerwise, 0xca002eed17898f95ull});
    TrainConfig local = base;
    local.momentum_mode = TrainConfig::MomentumMode::LocalCorrection;
    cases.push_back({"LocalCorrection", local, 0x95c3e22703815d33ull});
    return cases;
}

class SparseUpdatePin : public ::testing::TestWithParam<UpdatePinCase> {};

// The hashes were recorded while the update still scattered the global
// top-k into a dense m-float mean update and the trainer accumulated the
// whole gradient arena into the residual after backward. The MLP's rows
// (192, 37 and 19 inputs) end off the 4-lane and 64-entry grids. A model
// that folds its gradients during backward and a forwarding decorator that
// takes the unfolded default must both reproduce them bit for bit.
TEST_P(SparseUpdatePin, FoldedAndUnfoldedRunsMatchTheDenseUpdateHash) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 float arithmetic";
#endif
    const UpdatePinCase& pc = GetParam();
    Harness h(4);
    h.mlp.hidden_dims = {37, 19};
    const train::ModelFactory bare = h.factory();
    const train::ModelFactory forwarded = [&bare](std::uint64_t seed) {
        return std::make_unique<ForwardingModel>(bare(seed));
    };
    for (const auto& [label, factory] :
         {std::pair{"bare", bare}, std::pair{"forwarded", forwarded}}) {
        const TrainResult r =
            train::train_distributed(4, NetworkModel::free(), pc.config, factory,
                                     h.train_batches(), h.eval_batch());
        const std::uint64_t hash = run_hash(r);
        if (const char* env = std::getenv("GTOPK_PRINT_TRAJECTORY_HASHES");
            env && std::strcmp(env, "1") == 0) {
            std::printf("%s/%s 0x%016llxull\n", pc.name, label,
                        static_cast<unsigned long long>(hash));
        }
        EXPECT_EQ(hash, pc.hash) << pc.name << " " << label;
    }
}

INSTANTIATE_TEST_SUITE_P(All, SparseUpdatePin, ::testing::ValuesIn(update_pin_cases()),
                         [](const ::testing::TestParamInfo<UpdatePinCase>& info) {
                             return std::string(info.param.name);
                         });

TEST(Trainer, AlgorithmNamesAreStable) {
    EXPECT_STREQ(train::algorithm_name(Algorithm::DenseSsgd), "Dense S-SGD");
    EXPECT_STREQ(train::algorithm_name(Algorithm::GtopkSsgd), "gTop-k S-SGD");
}

}  // namespace
