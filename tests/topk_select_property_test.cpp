// Property tests for top-k selection: all strategies agree with each other
// and with a trivially correct reference across a sweep of sizes, k values
// and input distributions (including heavy ties and all-zero vectors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "sparse/topk_select.hpp"
#include "util/rng.hpp"

namespace {

using gtopk::sparse::magnitude_less;
using gtopk::sparse::SparseGradient;
using gtopk::sparse::topk_select;
using gtopk::sparse::TopkStrategy;
using gtopk::util::Xoshiro256;

enum class Dist { Gaussian, HeavyTies, AllZero, OneHot };

std::vector<float> make_input(std::size_t n, Dist dist, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<float> v(n, 0.0f);
    switch (dist) {
        case Dist::Gaussian:
            for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
            break;
        case Dist::HeavyTies:
            // Only 3 distinct magnitudes; exercises the index tie-break.
            for (auto& x : v) {
                const float mag = static_cast<float>(rng.next_below(3));
                x = rng.next_double() < 0.5 ? mag : -mag;
            }
            break;
        case Dist::AllZero:
            break;
        case Dist::OneHot:
            if (n > 0) v[n / 2] = 7.0f;
            break;
    }
    return v;
}

/// Trivial reference: stable full sort by the shared total order.
SparseGradient reference_topk(const std::vector<float>& dense, std::size_t k) {
    std::vector<std::int32_t> idx(dense.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    });
    idx.resize(std::min(k, dense.size()));
    std::sort(idx.begin(), idx.end());
    SparseGradient g;
    g.dense_size = static_cast<std::int64_t>(dense.size());
    g.indices = idx;
    for (auto i : idx) g.values.push_back(dense[static_cast<std::size_t>(i)]);
    return g;
}

using Param = std::tuple<std::size_t, std::size_t, Dist>;  // (n, k, dist)

class TopkSweep : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopkSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 10, 257, 4096),
                       ::testing::Values<std::size_t>(0, 1, 3, 50, 5000),
                       ::testing::Values(Dist::Gaussian, Dist::HeavyTies,
                                         Dist::AllZero, Dist::OneHot)));

TEST_P(TopkSweep, AllStrategiesMatchReference) {
    const auto [n, k, dist] = GetParam();
    const auto dense = make_input(n, dist, 0xBEEF + n * 31 + k);
    const auto expect = reference_topk(dense, k);
    for (auto strategy :
         {TopkStrategy::NthElement, TopkStrategy::Heap, TopkStrategy::FullSort}) {
        const auto got = topk_select(dense, k, strategy);
        EXPECT_EQ(got, expect) << "strategy=" << static_cast<int>(strategy)
                               << " n=" << n << " k=" << k;
    }
}

TEST_P(TopkSweep, SelectionDominatesUnselected) {
    const auto [n, k, dist] = GetParam();
    const auto dense = make_input(n, dist, 0xF00D + n + k);
    const auto sel = topk_select(dense, k);
    if (sel.nnz() == 0 || sel.nnz() == n) return;
    // min selected magnitude >= max unselected magnitude.
    float min_sel = std::abs(sel.values[0]);
    for (float v : sel.values) min_sel = std::min(min_sel, std::abs(v));
    std::vector<bool> chosen(n, false);
    for (auto i : sel.indices) chosen[static_cast<std::size_t>(i)] = true;
    for (std::size_t i = 0; i < n; ++i) {
        if (!chosen[i]) {
            EXPECT_LE(std::abs(dense[i]), min_sel);
        }
    }
}

TEST_P(TopkSweep, OutputIsCanonicalAndSizedRight) {
    const auto [n, k, dist] = GetParam();
    const auto dense = make_input(n, dist, 0xCAFE + n - k);
    const auto sel = topk_select(dense, k);
    EXPECT_NO_THROW(sel.validate());
    EXPECT_EQ(sel.nnz(), std::min(k, n));
    for (std::size_t i = 0; i < sel.nnz(); ++i) {
        EXPECT_EQ(sel.values[i], dense[static_cast<std::size_t>(sel.indices[i])]);
    }
}

TEST(TopkSelect, DeterministicAcrossCalls) {
    const auto dense = make_input(1000, Dist::HeavyTies, 5);
    const auto a = topk_select(dense, 100);
    const auto b = topk_select(dense, 100);
    EXPECT_EQ(a, b);
}

TEST(TopkSelect, KthLargestMagnitudeMatchesSelection) {
    // The selection's smallest |value| is the paper's threshold (Line 5-6
    // of Algorithm 1): the kth largest |value| of the input.
    Xoshiro256 rng(17);
    std::vector<float> dense(500);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    for (std::size_t k : {1u, 5u, 100u, 500u}) {
        std::vector<float> mags(dense.size());
        for (std::size_t i = 0; i < dense.size(); ++i) mags[i] = std::abs(dense[i]);
        std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         mags.end(), std::greater<float>());
        const float thr = mags[k - 1];
        const auto sel = topk_select(dense, k);
        float min_sel = std::abs(sel.values[0]);
        for (float v : sel.values) min_sel = std::min(min_sel, std::abs(v));
        EXPECT_FLOAT_EQ(thr, min_sel);
    }
}

TEST(TopkSelect, KthLargestEdgeCases) {
    EXPECT_EQ(topk_select({}, 3).nnz(), 0u);
    const std::vector<float> one{-5.0f};
    EXPECT_EQ(topk_select(one, 1).values, one);
    EXPECT_EQ(topk_select(one, 10).values, one);  // clamped
}

TEST(TopkSelect, ZeroSelectedClearsExactlyTheSelection) {
    auto dense = make_input(200, Dist::Gaussian, 9);
    const auto orig = dense;
    const auto sel = topk_select(dense, 20);
    gtopk::sparse::zero_selected(dense, sel);
    std::vector<bool> chosen(200, false);
    for (auto i : sel.indices) chosen[static_cast<std::size_t>(i)] = true;
    for (std::size_t i = 0; i < 200; ++i) {
        if (chosen[i]) {
            EXPECT_EQ(dense[i], 0.0f);
        } else {
            EXPECT_EQ(dense[i], orig[i]);
        }
    }
}

TEST(TopkSelect, ErrorFeedbackMassConservation) {
    // residual + selected == accumulated, elementwise, exactly.
    auto dense = make_input(300, Dist::Gaussian, 21);
    const auto orig = dense;
    const auto sel = topk_select(dense, 30);
    gtopk::sparse::zero_selected(dense, sel);  // dense is now the residual
    std::vector<float> reconstructed = dense;
    sel.scatter_add(reconstructed);
    EXPECT_EQ(reconstructed, orig);
}

}  // namespace
