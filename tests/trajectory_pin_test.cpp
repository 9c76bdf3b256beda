// Pinned trajectories: a short 4-rank run of every trainer algorithm (and
// of the knobs that touch the residual / update arithmetic) must reproduce
// a recorded 64-bit hash of its final parameters and per-epoch losses.
//
// The hashes were recorded from the trainer before the histogram top-k
// cut and the in-place residual / reused-update rewrite of the worker loop;
// LayerwiseFusedBuckets was recorded before every sparse algorithm moved
// onto the one per-bucket select/aggregate/put-back loop; the CNN cases
// (MiniResNet with BatchNorm, MiniVgg) were recorded from the direct-loop
// Conv2d and Linear kernels, before their loops were reordered; the
// threshold-policy and fused-bucket LocalCorrection cases were recorded
// before the residual accumulate learned to count the top-k histogram and
// the update fused momentum with the axpy. These changes
// claim to leave every bit of every trajectory unchanged; a mismatch here
// means some arithmetic moved (an operand order, a sign of
// zero, a selection tie-break). Set GTOPK_PRINT_TRAJECTORY_HASHES=1 to
// print the hashes a build computes. The values assume the default x86-64
// build (SSE floats, no FMA contraction, glibc libm); a toolchain that
// rounds differently moves them without any code change, and then they
// are re-recorded from a build of the same commit on that toolchain.
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
using train::Algorithm;
using train::TrainConfig;

enum class PinModel { Mlp, MiniResNet, MiniVgg };

struct PinCase {
    std::string name;
    TrainConfig config;
    std::uint64_t hash;
    PinModel model = PinModel::Mlp;
};

void PrintTo(const PinCase& pc, std::ostream* os) { *os << pc.name; }

TrainConfig base_config(Algorithm algorithm) {
    TrainConfig c;
    c.algorithm = algorithm;
    c.epochs = 2;
    c.iters_per_epoch = 6;
    c.lr = 0.05f;
    c.density = 0.01;
    return c;
}

std::vector<PinCase> pin_cases() {
    std::vector<PinCase> cases;
    auto add = [&](std::string name, TrainConfig c, std::uint64_t hash) {
        cases.push_back({std::move(name), std::move(c), hash});
    };
    add("Gtopk", base_config(Algorithm::GtopkSsgd), 0xbc6b5835d1b6faadull);
    add("Naive", base_config(Algorithm::NaiveGtopkSsgd), 0x3338dc265ebc6324ull);
    add("SelectKFromKP", base_config(Algorithm::SelectKFromKP), 0x2816da2e49d5ef12ull);
    {
        TrainConfig c = base_config(Algorithm::LayerwiseGtopkSsgd);
        add("LayerwiseOverlapOff", c, 0xa67b2ad80622a976ull);
        c.overlap = true;
        add("LayerwiseOverlapOn", c, 0xa67b2ad80622a976ull);
        // 4 KiB buckets fuse the output bias into its weight tensor and the
        // hidden bias into the input weights: two buckets of two tensors.
        c.overlap = false;
        c.bucket_bytes = 4096;
        add("LayerwiseFusedBuckets", c, 0x6f29b33893414b78ull);
        // DGC momentum correction per fused bucket: the velocity is folded
        // into every bucket's residual before that bucket selects.
        c.momentum_mode = TrainConfig::MomentumMode::LocalCorrection;
        add("LayerwiseFusedLocalCorrection", c, 0x9ac1ecd8c77de6e6ull);
    }
    add("Topk", base_config(Algorithm::TopkSsgd), 0x2af6d7821e2e6233ull);
    add("Dense", base_config(Algorithm::DenseSsgd), 0x2a69614ab2875354ull);
    {
        TrainConfig c = base_config(Algorithm::GtopkSsgd);
        c.check_invariants = true;
        add("GtopkCheckInvariants", c, 0xbc6b5835d1b6faadull);
    }
    {
        TrainConfig c = base_config(Algorithm::GtopkSsgd);
        c.selection = sparse::SelectionPolicy::StaticThreshold;
        c.static_threshold = 2e-3f;
        add("GtopkStaticThreshold", c, 0x78e12c7f0ec1da8eull);
    }
    {
        // The threshold policies read the accumulated residual without the
        // exact cut: the adaptive selector's state and the sampling RNG
        // carry across steps.
        TrainConfig c = base_config(Algorithm::GtopkSsgd);
        c.selection = sparse::SelectionPolicy::AdaptiveThreshold;
        c.static_threshold = 2e-3f;
        add("GtopkAdaptiveThreshold", c, 0x9e867f1832e6157bull);
        c.selection = sparse::SelectionPolicy::SampledTopk;
        add("GtopkSampledTopk", c, 0x30fe4d0fe2270544ull);
    }
    {
        // Clipping, DGC momentum correction and value quantization all
        // rewrite the accumulated gradient or the residual.
        TrainConfig c = base_config(Algorithm::GtopkSsgd);
        c.gradient_clip_norm = 0.5f;
        c.momentum_mode = TrainConfig::MomentumMode::LocalCorrection;
        c.value_quantizer = quant::Scheme::Uint8MinMax;
        c.check_invariants = true;
        add("GtopkClipLocalMomentumQuantized", c, 0x1e393710c0087955ull);
    }
    {
        TrainConfig c = base_config(Algorithm::DenseSsgd);
        c.gradient_clip_norm = 0.5f;
        add("DenseClipped", c, 0x1461bcda780af4e8ull);
    }
    // The convolutional models: every Conv2d, BatchNorm2d, MaxPool2d and
    // ResidualBlock kernel on the trajectory.
    cases.push_back({"GtopkMiniResNet", base_config(Algorithm::GtopkSsgd), 0x426450e3ee403bfbull,
                     PinModel::MiniResNet});
    cases.push_back({"GtopkMiniVgg", base_config(Algorithm::GtopkSsgd), 0x6ce4087aae897dc4ull,
                     PinModel::MiniVgg});
    return cases;
}

/// FNV-1a over the raw bytes of the final parameters and of every epoch's
/// train loss.
std::uint64_t trajectory_hash(const train::TrainResult& r) {
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

train::TrainResult run_case(const PinCase& pc) {
    data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 8;
    dcfg.noise_std = 0.6f;
    const data::SyntheticImageDataset dataset(dcfg, 1234);
    const data::ShardedSampler sampler(8192, 1024, 4, 99);
    nn::MlpConfig mcfg;
    mcfg.input_dim = dataset.feature_dim();
    mcfg.hidden_dims = {256};  // m ~ 52k: the histogram cut does real work
    mcfg.classes = 10;
    nn::MiniResNetConfig rcfg;
    rcfg.image_size = dcfg.image_size;
    rcfg.batch_norm = true;
    nn::MiniVggConfig vcfg;
    vcfg.image_size = dcfg.image_size;
    const bool images = pc.model != PinModel::Mlp;
    return train::train_distributed(
        4, comm::NetworkModel::free(), pc.config,
        [&](std::uint64_t seed) -> std::unique_ptr<nn::TrainableModel> {
            switch (pc.model) {
                case PinModel::MiniResNet: return nn::make_mini_resnet(rcfg, seed);
                case PinModel::MiniVgg: return nn::make_mini_vgg(vcfg, seed);
                case PinModel::Mlp: break;
            }
            return nn::make_mlp(mcfg, seed);
        },
        [&](std::int64_t step, int rank) {
            const auto indices = sampler.batch_indices(step, rank, 16);
            return images ? dataset.batch_images(indices) : dataset.batch_flat(indices);
        },
        {});
}

class PinnedTrajectory : public ::testing::TestWithParam<PinCase> {};

TEST_P(PinnedTrajectory, FinalParamsAndLossesMatchRecordedHash) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 float arithmetic";
#endif
    const PinCase& pc = GetParam();
    const train::TrainResult r = run_case(pc);
    ASSERT_EQ(r.epochs.size(), static_cast<std::size_t>(pc.config.epochs));
    const std::uint64_t h = trajectory_hash(r);
    if (const char* env = std::getenv("GTOPK_PRINT_TRAJECTORY_HASHES");
        env && std::strcmp(env, "1") == 0) {
        std::printf("%s 0x%016llxull\n", pc.name.c_str(),
                    static_cast<unsigned long long>(h));
    }
    EXPECT_EQ(h, pc.hash) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PinnedTrajectory,
                         ::testing::ValuesIn(pin_cases()),
                         [](const ::testing::TestParamInfo<PinCase>& info) {
                             return info.param.name;
                         });

}  // namespace
