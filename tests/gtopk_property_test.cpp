// Property-based tests of the gTop-k aggregation over randomized inputs:
// structural invariants that must hold for ANY input, world size and k —
// including under maskable network chaos (duplicates + cross-stream
// reorder), where the aggregation result AND the error-feedback residuals
// must stay bit-identical to the fault-free run.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "chaos_common.hpp"
#include "comm/cluster.hpp"
#include "comm/fault_transport.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using comm::Cluster;
using comm::Communicator;
using comm::NetworkModel;
using sparse::SparseGradient;

std::vector<SparseGradient> random_locals(int world, std::int64_t m, std::size_t k,
                                          std::uint64_t seed) {
    std::vector<SparseGradient> locals;
    for (int r = 0; r < world; ++r) {
        util::Xoshiro256 rng =
            util::Xoshiro256(seed).fork(static_cast<std::uint64_t>(r));
        std::vector<float> dense(static_cast<std::size_t>(m));
        for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
        locals.push_back(sparse::topk_select(dense, k));
    }
    return locals;
}

std::vector<SparseGradient> run_gtopk(const std::vector<SparseGradient>& locals,
                                      std::size_t k) {
    const int world = static_cast<int>(locals.size());
    std::vector<SparseGradient> results(static_cast<std::size_t>(world));
    Cluster::run(world, NetworkModel::free(), [&](Communicator& comm) {
        results[static_cast<std::size_t>(comm.rank())] =
            core::gtopk_allreduce(comm, locals[static_cast<std::size_t>(comm.rank())],
                                  k)
                .global;
    });
    return results;
}

using Param = std::tuple<int, std::size_t, std::uint64_t>;  // (world, k, seed)

class GtopkProperty : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GtopkProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8),
                       ::testing::Values<std::size_t>(1, 4, 32),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST_P(GtopkProperty, AllRanksAgreeBitForBit) {
    const auto [world, k, seed] = GetParam();
    const auto locals = random_locals(world, 512, k, seed);
    const auto results = run_gtopk(locals, k);
    for (int r = 1; r < world; ++r) {
        ASSERT_EQ(results[static_cast<std::size_t>(r)], results[0]);
    }
}

TEST_P(GtopkProperty, ResultIndicesAreSubsetOfInputUnion) {
    const auto [world, k, seed] = GetParam();
    const auto locals = random_locals(world, 512, k, seed + 100);
    const auto result = run_gtopk(locals, k)[0];
    std::set<std::int32_t> union_idx;
    for (const auto& g : locals) union_idx.insert(g.indices.begin(), g.indices.end());
    for (auto idx : result.indices) {
        EXPECT_TRUE(union_idx.count(idx)) << "index " << idx << " appeared from nowhere";
    }
}

TEST_P(GtopkProperty, ResultHasExactlyKEntries) {
    const auto [world, k, seed] = GetParam();
    const auto locals = random_locals(world, 512, k, seed + 200);
    const auto result = run_gtopk(locals, k)[0];
    // With Gaussian inputs the union always has >= k entries, so the
    // output sparsity is exactly k.
    EXPECT_EQ(result.nnz(), k);
    EXPECT_NO_THROW(result.validate());
}

TEST_P(GtopkProperty, DeterministicAcrossRepeatedRuns) {
    const auto [world, k, seed] = GetParam();
    const auto locals = random_locals(world, 256, k, seed + 300);
    const auto a = run_gtopk(locals, k)[0];
    const auto b = run_gtopk(locals, k)[0];
    EXPECT_EQ(a, b);
}

TEST_P(GtopkProperty, ScalingInputsScalesOutput) {
    // ⊤ is positively homogeneous: scaling every input by c > 0 scales the
    // selected values by c and leaves the selected index set unchanged.
    const auto [world, k, seed] = GetParam();
    auto locals = random_locals(world, 512, k, seed + 400);
    const auto base = run_gtopk(locals, k)[0];
    for (auto& g : locals) g.scale(2.0f);
    const auto scaled = run_gtopk(locals, k)[0];
    ASSERT_EQ(scaled.indices, base.indices);
    for (std::size_t i = 0; i < base.nnz(); ++i) {
        EXPECT_FLOAT_EQ(scaled.values[i], 2.0f * base.values[i]);
    }
}

TEST_P(GtopkProperty, InvariantUnderUniformShiftOfIndices) {
    // Relabeling the coordinate space (shifting all indices by a constant)
    // must shift the selection identically — no positional bias.
    const auto [world, k, seed] = GetParam();
    auto locals = random_locals(world, 512, k, seed + 500);
    const auto base = run_gtopk(locals, k)[0];
    const std::int32_t shift = 1000;
    for (auto& g : locals) {
        g.dense_size += shift;
        for (auto& idx : g.indices) idx += shift;
    }
    const auto shifted = run_gtopk(locals, k)[0];
    ASSERT_EQ(shifted.nnz(), base.nnz());
    for (std::size_t i = 0; i < base.nnz(); ++i) {
        EXPECT_EQ(shifted.indices[i], base.indices[i] + shift);
        EXPECT_EQ(shifted.values[i], base.values[i]);
    }
}

TEST_P(GtopkProperty, EveryResultValueIsAPartialSumOfContributions) {
    // For each selected index, the value must equal the sum of
    // contributions from SOME subset of the workers holding that index
    // (which subset depends on the tree path — but never anything else).
    const auto [world, k, seed] = GetParam();
    const auto locals = random_locals(world, 512, k, seed + 600);
    const auto result = run_gtopk(locals, k)[0];
    for (std::size_t i = 0; i < result.nnz(); ++i) {
        const std::int32_t idx = result.indices[i];
        std::vector<float> contribs;
        for (const auto& g : locals) {
            for (std::size_t j = 0; j < g.nnz(); ++j) {
                if (g.indices[j] == idx) contribs.push_back(g.values[j]);
            }
        }
        ASSERT_FALSE(contribs.empty());
        // Check subset-sum membership (contribs.size() is tiny).
        bool found = false;
        const std::size_t subsets = 1u << contribs.size();
        for (std::size_t mask = 1; mask < subsets && !found; ++mask) {
            float sum = 0.0f;
            for (std::size_t j = 0; j < contribs.size(); ++j) {
                if (mask & (1u << j)) sum += contribs[j];
            }
            if (std::abs(sum - result.values[i]) <= 1e-5f) found = true;
        }
        EXPECT_TRUE(found) << "value at index " << idx
                           << " is not a partial sum of worker contributions";
    }
}

TEST(GtopkEdge, AllWorkersIdenticalInput) {
    // When every worker holds the same sparse gradient g, the result is
    // k-top of world * g — i.e. same indices, values scaled by P.
    const int world = 4;
    SparseGradient g;
    g.dense_size = 100;
    g.indices = {3, 10, 50};
    g.values = {1.0f, -2.0f, 0.5f};
    std::vector<SparseGradient> locals(world, g);
    const auto result = run_gtopk(locals, 3)[0];
    EXPECT_EQ(result.indices, g.indices);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_FLOAT_EQ(result.values[i], 4.0f * g.values[i]);
    }
}

TEST(GtopkEdge, EmptyInputsYieldEmptyResult) {
    SparseGradient empty;
    empty.dense_size = 64;
    std::vector<SparseGradient> locals(4, empty);
    const auto result = run_gtopk(locals, 5)[0];
    EXPECT_EQ(result.nnz(), 0u);
}

TEST(GtopkEdge, KLargerThanUnionKeepsEverything) {
    SparseGradient a, b;
    a.dense_size = b.dense_size = 32;
    a.indices = {1};
    a.values = {2.0f};
    b.indices = {5};
    b.values = {-3.0f};
    std::vector<SparseGradient> locals{a, b};
    const auto result = run_gtopk(locals, 10)[0];
    EXPECT_EQ(result.indices, (std::vector<std::int32_t>{1, 5}));
}

// ---------------------------------------------------------------------------
// Chaos property: under duplicate + reorder + delay plans the gTop-k result
// AND the residuals (error feedback, Alg. 4 lines 8 and 10) are bit-identical
// to the clean run.

struct RankState {
    SparseGradient global;
    std::vector<float> residual;  // dense - selected, plus line-10 put-back
    bool operator==(const RankState& o) const {
        return global == o.global && residual == o.residual;
    }
};

/// One gTop-k round per rank with full residual bookkeeping, run over an
/// arbitrary transport. Mirrors the trainer's error-feedback algebra:
/// residual = accumulated - selected (line 8), then the locally-selected
/// entries that did NOT survive the global selection go back (line 10).
std::vector<RankState> run_gtopk_with_residuals(comm::Transport& transport, int world,
                                                std::size_t k, std::uint64_t seed) {
    std::vector<RankState> states(static_cast<std::size_t>(world));
    comm::Cluster::run_on(transport, NetworkModel::free(), [&](Communicator& comm) {
        util::Xoshiro256 rng =
            util::Xoshiro256(seed).fork(static_cast<std::uint64_t>(comm.rank()));
        std::vector<float> dense(512);
        for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
        const auto local = sparse::topk_select(dense, k);

        RankState st;
        st.residual = dense;
        for (std::size_t i = 0; i < local.nnz(); ++i) {
            st.residual[static_cast<std::size_t>(local.indices[i])] = 0.0f;
        }

        core::GtopkWorkspace ws;
        const core::GtopkOptions options{.workspace = &ws};
        // Several rounds so small worlds still exchange enough messages for
        // a probabilistic plan to fire; same input => same result each
        // round, which doubles as a stability check under the chaos.
        for (int round = 0; round < 6; ++round) {
            auto r = core::gtopk_allreduce(comm, local, k, options).global;
            if (round > 0) {
                ASSERT_EQ(r, st.global) << "round " << round;
            }
            st.global = std::move(r);
        }

        const std::set<std::int32_t> survived(st.global.indices.begin(),
                                              st.global.indices.end());
        for (std::size_t i = 0; i < local.nnz(); ++i) {
            if (!survived.count(local.indices[i])) {
                st.residual[static_cast<std::size_t>(local.indices[i])] +=
                    local.values[i];
            }
        }
        states[static_cast<std::size_t>(comm.rank())] = std::move(st);
    });
    return states;
}

using ChaosParam = std::tuple<int, std::uint64_t>;  // (world, seed)

class GtopkChaosProperty : public ::testing::TestWithParam<ChaosParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, GtopkChaosProperty,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values<std::uint64_t>(1, 2,
                                                                             3)));

TEST_P(GtopkChaosProperty, ResultAndResidualsBitIdenticalUnderMaskableChaos) {
    const auto [world, seed] = GetParam();
    const std::size_t k = 16;
    comm::InProcTransport clean_transport(world);
    const auto clean = run_gtopk_with_residuals(clean_transport, world, k, seed);

    comm::FaultInjectingTransport chaotic(world, chaos::maskable_plan(seed));
    const auto chaos = run_gtopk_with_residuals(chaotic, world, k, seed);

    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(chaos[static_cast<std::size_t>(r)].global,
                  clean[static_cast<std::size_t>(r)].global)
            << "rank " << r;
        ASSERT_EQ(chaos[static_cast<std::size_t>(r)].residual,
                  clean[static_cast<std::size_t>(r)].residual)
            << "rank " << r;
    }
    // A run where the plan never fired proves nothing.
    EXPECT_GT(chaotic.counts().injected(), 0u);
}

TEST_P(GtopkChaosProperty, ChaosScheduleItselfIsSeedDeterministic) {
    // Same seed + same plan => the transport makes the identical sequence of
    // fault decisions (the acceptance criterion's bit-identical schedule).
    const auto [world, seed] = GetParam();
    comm::FaultCounts first;
    for (int run = 0; run < 2; ++run) {
        comm::FaultInjectingTransport t(world, chaos::maskable_plan(seed));
        (void)run_gtopk_with_residuals(t, world, 16, seed);
        if (run == 0) {
            first = t.counts();
        } else {
            EXPECT_EQ(t.counts().duplicated, first.duplicated);
            EXPECT_EQ(t.counts().reordered, first.reordered);
            EXPECT_EQ(t.counts().delayed, first.delayed);
            EXPECT_EQ(t.counts().dropped, first.dropped);
            EXPECT_EQ(t.counts().corrupted, first.corrupted);
        }
    }
}

TEST(GtopkEdge, CancellationAcrossWorkersIsHandled) {
    // Two workers contribute exactly opposite values at one index; the sum
    // there is zero and a different index must win.
    SparseGradient a, b;
    a.dense_size = b.dense_size = 16;
    a.indices = {2, 7};
    a.values = {5.0f, 0.25f};
    b.indices = {2, 9};
    b.values = {-5.0f, 0.5f};
    std::vector<SparseGradient> locals{a, b};
    const auto result = run_gtopk(locals, 1)[0];
    ASSERT_EQ(result.nnz(), 1u);
    EXPECT_EQ(result.indices[0], 9);
    EXPECT_FLOAT_EQ(result.values[0], 0.5f);
}

}  // namespace
