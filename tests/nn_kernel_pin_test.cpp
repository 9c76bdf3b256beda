// Pinned layer kernels: Conv2d and Linear, run forward + backward twice on
// fixed inputs, must reproduce a recorded 64-bit hash of the bits of every
// output, input gradient and accumulated parameter gradient.
//
// The hashes were recorded from the direct-loop kernels, before the loops
// were reordered for cache and vector use. The reorder claims to give every
// element exactly the same float operations in the same order; a mismatch
// here means a sum was reassociated, a padded tap was added as zero, or a
// signed zero / subnormal took a different path. The shapes cover kernel
// 1-5, stride 1-3, padding 0-3 (also padding that leaves whole output rows
// on the border), odd spatial sizes, the benchmark workloads' layers, and
// batch sizes on both sides of every blocking factor. Inputs and
// parameters include exact zeros, -0.0f and subnormals. The values assume
// the default x86-64 build (SSE floats, no FMA contraction, no
// flush-to-zero).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <ostream>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using nn::Tensor;

/// Gaussian values with the awkward ones mixed in: exact zeros, negative
/// zeros, subnormals of both signs and tiny normals.
void fill_awkward(std::span<float> out, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < out.size(); ++i) {
        float v = static_cast<float>(rng.next_gaussian());
        switch (i % 17) {
            case 3: v = 0.0f; break;
            case 7: v = -0.0f; break;
            case 11: v = (v < 0.0f ? -1.0f : 1.0f) * 3.0e-40f; break;
            case 13: v *= 1.0e-30f; break;
            default: break;
        }
        out[i] = v;
    }
}

Tensor awkward_tensor(std::vector<std::int64_t> shape, std::uint64_t seed) {
    Tensor t(std::move(shape));
    fill_awkward(t.data(), seed);
    return t;
}

/// FNV-1a over raw float bits.
struct BitHash {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void mix(std::span<const float> v) {
        const auto* p = reinterpret_cast<const unsigned char*>(v.data());
        for (std::size_t i = 0; i < v.size_bytes(); ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
};

/// Overwrites every parameter with awkward values, then runs
/// forward/backward twice (the second backward accumulates onto the first's
/// parameter gradients) and hashes y, dx of both passes and the final
/// parameter gradients.
std::uint64_t run_layer(nn::Layer& layer, const std::vector<std::int64_t>& in_shape,
                        const std::vector<std::int64_t>& out_shape, std::uint64_t seed) {
    std::vector<nn::Param*> params;
    layer.collect_params(params);
    for (std::size_t p = 0; p < params.size(); ++p) {
        fill_awkward(params[p]->value, seed * 31 + p);
    }
    BitHash hash;
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
        const Tensor x = awkward_tensor(in_shape, seed * 7 + 100 + pass);
        const Tensor y = layer.forward(x, true);
        EXPECT_EQ(y.shape(), out_shape);
        const Tensor dy = awkward_tensor(out_shape, seed * 7 + 200 + pass);
        const Tensor dx = layer.backward(dy);
        EXPECT_EQ(dx.shape(), in_shape);
        hash.mix(y.data());
        hash.mix(dx.data());
    }
    for (const nn::Param* p : params) hash.mix(p->grad);
    return hash.h;
}

struct KernelCase {
    std::string name;
    bool conv;
    // Conv2d: in_c, out_c, kernel, stride, padding, batch, h, w.
    // Linear: in, out, batch (the rest unused).
    std::int64_t a, b, c, d, e, f, g, h;
    std::uint64_t hash;
};

void PrintTo(const KernelCase& kc, std::ostream* os) { *os << kc.name; }

KernelCase conv(std::string name, std::int64_t in_c, std::int64_t out_c, std::int64_t k,
                std::int64_t s, std::int64_t p, std::int64_t n, std::int64_t h,
                std::int64_t w, std::uint64_t hash) {
    return {std::move(name), true, in_c, out_c, k, s, p, n, h, w, hash};
}

KernelCase linear(std::int64_t in, std::int64_t out, std::int64_t n, std::uint64_t hash) {
    return {"Linear" + std::to_string(in) + "x" + std::to_string(out) + "N" +
                std::to_string(n),
            false, in, out, n, 0, 0, 0, 0, 0, hash};
}

std::vector<KernelCase> kernel_cases() {
    return {
        // The resnet_gtopk workload's convolutions.
        conv("ConvResnetStem3to16", 3, 16, 3, 1, 1, 4, 16, 16, 0x8b9215d1d4a9b119ull),
        conv("ConvResnetBlock16to16", 16, 16, 3, 1, 1, 4, 16, 16, 0x2c2f12ae8ed25840ull),
        // MiniVgg's second convolution.
        conv("ConvVgg8to16", 8, 16, 3, 1, 1, 3, 8, 8, 0xee880ecec7348fbcull),
        conv("ConvK1S1P0", 2, 3, 1, 1, 0, 1, 5, 7, 0xf8e8f4d28e6078a5ull),
        conv("ConvK2S2P0", 3, 2, 2, 2, 0, 2, 7, 9, 0xfaa9d7cafb5438d7ull),
        conv("ConvK3S2P1", 2, 4, 3, 2, 1, 3, 9, 7, 0x91345e78e541f70bull),
        conv("ConvK4S3P2", 3, 3, 4, 3, 2, 5, 11, 13, 0x716aea203a2b6220ull),
        conv("ConvK5S1P3", 1, 2, 5, 1, 3, 2, 9, 11, 0xb88914c46ba682c3ull),
        conv("ConvK5S3P2", 2, 2, 5, 3, 2, 1, 13, 9, 0x27fab3a7163d67b9ull),
        // Padding wider than the kernel: the border outputs see no input and
        // stay at their bias, which is -0.0f for output channel 7.
        conv("ConvK1S2P2", 3, 8, 1, 2, 2, 3, 7, 5, 0xbb2fc808cdb01a36ull),
        // Kernel larger than the input.
        conv("ConvK5S1P1Tiny", 2, 3, 5, 1, 1, 2, 3, 5, 0xa138bbb2d1114cabull),
        // The mlp_wide_gtopk and layerwise_tcp layers, at batch 1-5 (both
        // sides of a 4-sample block) and 16 (the trajectory pins).
        linear(768, 2048, 1, 0xd95fcd8f261d5281ull),
        linear(768, 2048, 2, 0x5838607ae9b51c37ull),
        linear(768, 2048, 3, 0x70a2a15ae7443623ull),
        linear(768, 2048, 4, 0x2a40e142f6d6a950ull),
        linear(768, 2048, 5, 0x22cae5258b1f2019ull),
        linear(768, 2048, 16, 0x92be0372c258af49ull),
        linear(2048, 512, 1, 0xc6147bcacd9776e7ull),
        linear(2048, 512, 2, 0x77ce815331ab0093ull),
        linear(2048, 512, 3, 0xe299a90a93781118ull),
        linear(2048, 512, 4, 0x7439af0ddc9070f6ull),
        linear(2048, 512, 5, 0x4c6705aae4078d99ull),
        linear(2048, 512, 16, 0xbe60c864b6c4e18ull),
        linear(512, 10, 1, 0x6a455418ec9bd6a5ull),
        linear(512, 10, 2, 0x349a28a2a9fef4b3ull),
        linear(512, 10, 3, 0x9485b3a7d900dbe8ull),
        linear(512, 10, 4, 0xbad5913c49adfaa1ull),
        linear(512, 10, 5, 0x6691099af6889979ull),
        linear(512, 10, 16, 0x7ebfc1a6d940a9ecull),
        linear(64, 64, 1, 0x81adc7ce552715f0ull),
        linear(64, 64, 2, 0xb950b037c183af1bull),
        linear(64, 64, 3, 0x899b730fb79f2b61ull),
        linear(64, 64, 4, 0xd22ecac52e836369ull),
        linear(64, 64, 5, 0xd9965395db02064ull),
        linear(64, 64, 16, 0x4ab80650438655c4ull),
        // Odd sizes: no multiple of any vector width.
        linear(1, 1, 1, 0xdfa9b652aded8f1full),
        linear(7, 5, 3, 0xb870aa2c38af5298ull),
        linear(13, 33, 5, 0x73add7b3381c968cull),
        linear(3, 17, 2, 0x9133508725838f93ull),
        linear(37, 9, 16, 0xb6906f47aed99c50ull),
    };
}

class PinnedKernel : public ::testing::TestWithParam<KernelCase> {};

TEST_P(PinnedKernel, OutputsAndGradientsMatchRecordedHash) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 float arithmetic";
#endif
    const KernelCase& kc = GetParam();
    util::Xoshiro256 rng(17);
    std::uint64_t h = 0;
    if (kc.conv) {
        nn::Conv2d layer(kc.a, kc.b, kc.c, kc.d, kc.e);
        const nn::ParamArena layer_params = nn::bind_params(layer, rng);
        h = run_layer(layer, {kc.f, kc.a, kc.g, kc.h},
                      {kc.f, kc.b, layer.out_dim(kc.g), layer.out_dim(kc.h)},
                      static_cast<std::uint64_t>(kc.a * 1000 + kc.c * 10 + kc.d));
    } else {
        nn::Linear layer(kc.a, kc.b);
        const nn::ParamArena layer_params = nn::bind_params(layer, rng);
        h = run_layer(layer, {kc.c, kc.a}, {kc.c, kc.b},
                      static_cast<std::uint64_t>(kc.a * 7 + kc.b * 3 + kc.c));
    }
    EXPECT_EQ(h, kc.hash) << kc.name << " computed 0x" << std::hex << h << "ull";
}

INSTANTIATE_TEST_SUITE_P(ConvAndLinear, PinnedKernel, ::testing::ValuesIn(kernel_cases()),
                         [](const ::testing::TestParamInfo<KernelCase>& info) {
                             return info.param.name;
                         });

}  // namespace
