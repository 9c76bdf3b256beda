// Allocation discipline of the gTop-k worker loop: once warmed up, a
// GtopkSsgd step makes no heap allocation as large as the flat parameter
// vector (m floats). The residual is accumulated in place, the global
// update lands in a reused buffer, and the parameter update is an axpy, so
// nothing O(m) is allocated per step.
//
// This binary replaces the global operator new with a counting one. It
// counts only on threads that armed it, and the batch provider arms a
// rank's thread from the batch request of step 2 until the request of the
// last step, so steps 2 .. last-1 are covered whole and the final parameter
// copy is not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "train/trainer.hpp"

namespace {

std::atomic<std::size_t> g_large_bytes{SIZE_MAX};
std::atomic<int> g_large_allocs{0};
thread_local bool t_armed = false;

}  // namespace

// The replacements below pair malloc with free; GCC inlines them into this
// file's new/delete expressions and then flags the (correct) pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
    if (t_armed && n >= g_large_bytes.load(std::memory_order_relaxed)) {
        g_large_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gtopk;

/// Large (>= m floats) allocations made inside steps 2 .. last-1 of a
/// 4-rank run of `algorithm`.
int large_allocs_in_steady_steps(train::Algorithm algorithm) {
    data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 8;
    const data::SyntheticImageDataset dataset(dcfg, 1234);
    const data::ShardedSampler sampler(8192, 1024, 4, 99);
    nn::MlpConfig mcfg;
    mcfg.input_dim = dataset.feature_dim();
    mcfg.hidden_dims = {256};
    mcfg.classes = 10;
    const std::size_t m = nn::make_mlp(mcfg, 1)->num_params();

    train::TrainConfig config;
    config.algorithm = algorithm;
    config.epochs = 2;
    config.iters_per_epoch = 5;
    config.density = 0.01;
    const std::int64_t last = config.epochs * config.iters_per_epoch - 1;

    g_large_bytes.store(m * sizeof(float));
    g_large_allocs.store(0);
    train::train_distributed(
        4, comm::NetworkModel::free(), config,
        [&](std::uint64_t seed) { return nn::make_mlp(mcfg, seed); },
        [&](std::int64_t step, int rank) {
            t_armed = false;
            nn::Batch b = dataset.batch_flat(sampler.batch_indices(step, rank, 16));
            t_armed = step >= 2 && step < last;
            return b;
        },
        {});
    g_large_bytes.store(SIZE_MAX);
    return g_large_allocs.load();
}

TEST(TrainerAllocations, CounterSeesLargeAllocations) {
    // The probe itself: an armed m-float vector is counted, a disarmed one
    // is not. Without this the zero below could be vacuous.
    auto allocate = [] {
        std::vector<float> v(1 << 14);
        volatile float* p = v.data();  // keeps the allocation observable
        p[0] = 1.0f;
    };
    g_large_bytes.store(1 << 16);
    g_large_allocs.store(0);
    t_armed = true;
    allocate();
    t_armed = false;
    allocate();
    g_large_bytes.store(SIZE_MAX);
    EXPECT_EQ(g_large_allocs.load(), 1);
}

TEST(TrainerAllocations, DenseSsgdStepsAllocateAtLeastOnceEach) {
    // Positive control: dense S-SGD flattens its gradient and its ring
    // allreduce returns a fresh m-float sum every step.
    EXPECT_GE(large_allocs_in_steady_steps(train::Algorithm::DenseSsgd), 4 * 7);
}

TEST(TrainerAllocations, GtopkStepsMakeNoParameterSizedAllocation) {
    EXPECT_EQ(large_allocs_in_steady_steps(train::Algorithm::GtopkSsgd), 0);
}

}  // namespace
