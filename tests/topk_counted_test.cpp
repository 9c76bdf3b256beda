// The counted top-k path: accumulate_counted must leave exactly the bits of
// a scalar `d += g` while counting the histogram, topk_select_counted must
// agree with the one-shot topk_select reference, and the count's life cycle
// (begin, count every entry once, one select consumes it) is enforced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "sparse/topk_select.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using sparse::SparseGradient;

std::vector<float> random_dense(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> v(m);
    for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
    return v;
}

/// Random values salted with the awkward ones: signed zeros, subnormals,
/// exact ties and values whose sum cancels to zero.
std::vector<float> awkward_dense(std::size_t m, std::uint64_t seed) {
    std::vector<float> v = random_dense(m, seed);
    const float denorm_min = std::numeric_limits<float>::denorm_min();
    for (std::size_t i = 0; i < m; ++i) {
        switch ((i * 7 + seed) % 11) {
            case 0: v[i] = -0.0f; break;
            case 1: v[i] = 0.0f; break;
            case 2: v[i] = static_cast<float>(i % 13) * denorm_min; break;
            case 3: v[i] = -static_cast<float>(i % 5 + 1) * denorm_min; break;
            case 4: v[i] = 0.5f; break;
            default: break;
        }
    }
    return v;
}

/// std::domain_error and std::out_of_range derive from std::logic_error;
/// a broken count must raise the base class itself.
template <typename F>
void expect_logic_error(F&& f) {
    try {
        f();
        ADD_FAILURE() << "no exception";
    } catch (const std::exception& e) {
        EXPECT_EQ(typeid(e), typeid(std::logic_error)) << e.what();
    }
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Count `src` into `dense` as three segments, [0, at), [at, at + n) and
/// the tail, the way the trainer counts a bucket tensor by tensor.
void accumulate_in_three(std::vector<float>& dense, std::size_t at, std::size_t n,
                         std::span<const float> src, sparse::TopkWorkspace& ws) {
    sparse::begin_count(ws, dense.size());
    sparse::accumulate_counted(dense, 0, src.subspan(0, at), ws);
    sparse::accumulate_counted(dense, at, src.subspan(at, n), ws);
    sparse::accumulate_counted(dense, at + n, src.subspan(at + n), ws);
}

TEST(TopkCounted, UnalignedSegmentsAccumulateScalarBitsAndSelectExactly) {
    sparse::TopkWorkspace ws;  // reused across every case, as in training
    SparseGradient out;
    for (std::size_t n = 1; n <= 300; n += (n < 70 ? 1 : 23)) {
        for (const std::size_t at : {1u, 3u, 6u, 63u, 65u, 130u}) {
            const std::size_t m = at + n + 5;
            std::vector<float> dense = awkward_dense(m, 10 * n + at);
            const std::vector<float> src = awkward_dense(m, 7 * n + at + 1);
            std::vector<float> expect = dense;
            for (std::size_t i = 0; i < m; ++i) expect[i] += src[i];

            accumulate_in_three(dense, at, n, src, ws);
            ASSERT_TRUE(same_bits(dense, expect)) << "n=" << n << " at=" << at;

            const std::size_t k = 1 + (n + at) % (m - 1);
            sparse::topk_select_counted(dense, k, ws, out);
            ASSERT_EQ(out, sparse::topk_select(expect, k)) << "n=" << n << " at=" << at;
        }
    }
}

TEST(TopkCounted, BackwardFoldOrderCountsEachBucketLikeOneWholeSpan) {
    // A folded train step counts each bucket the way backward hands its
    // gradient over: tensors last to first, each weight's rows ascending
    // and then its bias, every row off the 64-entry block grid. The three
    // buckets each count into their own workspace.
    struct Shape {
        std::size_t rows, cols;
    };
    const std::vector<std::vector<Shape>> buckets = {
        {{5, 37}, {1, 5}},
        {{3, 130}, {1, 3}, {7, 19}, {1, 7}},
        {{2, 65}, {1, 2}, {1, 1}},
    };
    sparse::TopkWorkspace whole_ws, fold_ws;
    SparseGradient whole_out, fold_out;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        std::size_t m = 0;
        std::vector<std::size_t> offsets;
        for (const Shape& t : buckets[b]) {
            offsets.push_back(m);
            m += t.rows * t.cols;
        }
        const std::vector<float> grad = awkward_dense(m, 50 + b);
        std::vector<float> whole = awkward_dense(m, 60 + b);
        std::vector<float> folded = whole;

        sparse::begin_count(whole_ws, m);
        sparse::accumulate_counted(whole, 0, grad, whole_ws);
        sparse::begin_count(fold_ws, m);
        for (std::size_t t = buckets[b].size(); t-- > 0;) {
            const Shape s = buckets[b][t];
            for (std::size_t r = 0; r < s.rows; ++r) {
                const std::size_t at = offsets[t] + r * s.cols;
                sparse::accumulate_counted(folded, at, std::span(grad).subspan(at, s.cols),
                                           fold_ws);
            }
        }

        ASSERT_TRUE(same_bits(folded, whole)) << "bucket " << b;
        EXPECT_EQ(fold_ws.block_max, whole_ws.block_max) << "bucket " << b;
        EXPECT_EQ(fold_ws.max_key, whole_ws.max_key) << "bucket " << b;
        EXPECT_EQ(fold_ws.counted, whole_ws.counted) << "bucket " << b;
        for (std::size_t bin = 0; bin < sparse::kHistogramBins; ++bin) {
            const std::uint32_t* f = fold_ws.lanes.data() + 4 * bin;
            const std::uint32_t* w = whole_ws.lanes.data() + 4 * bin;
            ASSERT_EQ(f[0] + f[1] + f[2] + f[3], w[0] + w[1] + w[2] + w[3])
                << "bucket " << b << " bin " << bin;
        }
        const std::size_t k = 1 + m / 10;
        sparse::topk_select_counted(whole, k, whole_ws, whole_out);
        sparse::topk_select_counted(folded, k, fold_ws, fold_out);
        EXPECT_EQ(fold_out, whole_out) << "bucket " << b;
        EXPECT_EQ(fold_out, sparse::topk_select(whole, k)) << "bucket " << b;
    }
}

TEST(TopkCounted, MatchesOneShotReferenceOnLargeVectors) {
    sparse::TopkWorkspace ws;
    SparseGradient out;
    const std::size_t m = 50'007;
    for (const std::size_t k : {1u, 50u, 517u, 5000u, 50'006u}) {
        std::vector<float> dense = random_dense(m, 40 + k);
        std::vector<float> grad = random_dense(m, 41 + k);
        // Every ninth sum is 0 + a quarter step: exact ties for the index
        // order to break.
        for (std::size_t i = 0; i < m; i += 9) {
            dense[i] = 0.0f;
            grad[i] = std::round(grad[i] * 4) / 4;
        }
        accumulate_in_three(dense, 1 + k % 1000, 20'001, grad, ws);
        sparse::topk_select_counted(dense, k, ws, out);
        EXPECT_EQ(out, sparse::topk_select(dense, k, sparse::TopkStrategy::FullSort))
            << "k=" << k;
    }
}

TEST(TopkCounted, SelectIntoCountsForItself) {
    // topk_select_into is begin_count + a count-only pass + the counted
    // select; it must not disturb a vector and must agree with the
    // reference, also after the workspace counted other sizes.
    sparse::TopkWorkspace ws;
    SparseGradient out;
    for (const std::size_t m : {70u, 4096u, 1u, 333u}) {
        const std::vector<float> dense = awkward_dense(m, m);
        const std::vector<float> copy = dense;
        for (const std::size_t k : {std::size_t{1}, m / 2, m - 1}) {
            sparse::topk_select_into(dense, k, ws, out);
            EXPECT_EQ(out, sparse::topk_select(dense, k)) << "m=" << m << " k=" << k;
        }
        EXPECT_TRUE(same_bits(dense, copy));
    }
}

TEST(TopkCounted, FiniteSumOverflowingToInfThrowsDomainError) {
    sparse::TopkWorkspace ws;
    SparseGradient out;
    for (const std::size_t pos : {4u, 66u, 128u}) {  // a vector lane and a scalar tail
        std::vector<float> dense = random_dense(130, pos);
        std::vector<float> src(130, 0.0f);
        dense[pos - 1] = 3e38f;
        src[pos - 1] = 3e38f;  // both finite, the sum is +Inf
        sparse::begin_count(ws, dense.size());
        sparse::accumulate_counted(dense, 0, src, ws);
        ASSERT_TRUE(std::isinf(dense[pos - 1]));
        try {
            sparse::topk_select_counted(dense, 8, ws, out);
            FAIL() << "an overflowed sum was selected from";
        } catch (const std::domain_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("1 non-finite"), std::string::npos) << what;
        }
    }
    // A NaN in a vector lane is caught too, and the next count is clean.
    std::vector<float> dense = random_dense(256, 3);
    dense[9] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(sparse::topk_select_into(dense, 8, ws, out), std::domain_error);
    dense[9] = 0.25f;
    sparse::topk_select_into(dense, 8, ws, out);
    EXPECT_EQ(out, sparse::topk_select(dense, 8));
}

TEST(TopkCounted, DegenerateKMatchesOneShot) {
    sparse::TopkWorkspace ws;
    SparseGradient out;
    const std::vector<float> src = awkward_dense(77, 5);
    for (const std::size_t k : {0u, 77u, 78u, 1000u}) {
        std::vector<float> dense(77, 0.0f);
        sparse::begin_count(ws, dense.size());
        sparse::accumulate_counted(dense, 0, src, ws);
        sparse::topk_select_counted(dense, k, ws, out);
        EXPECT_EQ(out, sparse::topk_select(dense, k)) << "k=" << k;
    }
    // The empty vector, counted with no segment at all.
    sparse::begin_count(ws, 0);
    sparse::topk_select_counted({}, 3, ws, out);
    EXPECT_EQ(out.nnz(), 0u);
    EXPECT_EQ(out.dense_size, 0);
}

TEST(TopkCounted, SelectWithoutAFreshCompleteCountThrowsLogicError) {
    std::vector<float> dense = random_dense(200, 6);
    const std::vector<float> src = random_dense(200, 7);
    SparseGradient out;
    {
        sparse::TopkWorkspace ws;  // never counted
        expect_logic_error([&] { sparse::topk_select_counted(dense, 5, ws, out); });
    }
    sparse::TopkWorkspace ws;
    // Part of the vector counted.
    sparse::begin_count(ws, dense.size());
    sparse::accumulate_counted(dense, 0, std::span(src).first(199), ws);
    expect_logic_error([&] { sparse::topk_select_counted(dense, 5, ws, out); });
    // Counted for another size.
    sparse::begin_count(ws, 100);
    expect_logic_error([&] { sparse::accumulate_counted(dense, 0, src, ws); });
    expect_logic_error([&] { sparse::topk_select_counted(dense, 5, ws, out); });
    // A complete count is consumed by one select, degenerate k included.
    sparse::begin_count(ws, dense.size());
    sparse::accumulate_counted(dense, 0, src, ws);
    sparse::topk_select_counted(dense, 0, ws, out);
    expect_logic_error([&] { sparse::topk_select_counted(dense, 5, ws, out); });
    expect_logic_error([&] { sparse::accumulate_counted(dense, 0, src, ws); });
    // A segment past the end.
    sparse::begin_count(ws, dense.size());
    EXPECT_THROW(sparse::accumulate_counted(dense, 1, src, ws), std::out_of_range);
    EXPECT_THROW(sparse::accumulate_counted(dense, 201, std::span(src).first(0), ws),
                 std::out_of_range);
}

TEST(TopkCounted, VectorChangedSinceItsCountThrowsLogicError) {
    sparse::TopkWorkspace ws;
    SparseGradient out;
    std::vector<float> dense(4096, 0.0f);
    const std::vector<float> src = random_dense(dense.size(), 8);
    sparse::begin_count(ws, dense.size());
    sparse::accumulate_counted(dense, 0, src, ws);
    for (float& v : dense) v = 100.0f;  // every entry now outranks the count's cut
    expect_logic_error([&] { sparse::topk_select_counted(dense, 16, ws, out); });
    // And the other way: no entry reaches the cut any more.
    sparse::begin_count(ws, dense.size());
    sparse::accumulate_counted(dense, 0, src, ws);
    for (float& v : dense) v = 0.0f;
    expect_logic_error([&] { sparse::topk_select_counted(dense, 16, ws, out); });
}

TEST(TopkCounted, UnconsumedCountsAndShrinkingMagnitudesReuseTheWorkspace) {
    // A threshold policy counts and never selects; a later count of far
    // smaller values must not see the old bins.
    sparse::TopkWorkspace ws;
    SparseGradient out;
    std::vector<float> big = random_dense(3000, 9);
    for (float& v : big) v *= 1e30f;
    sparse::begin_count(ws, big.size());
    sparse::accumulate_counted(big, 0, random_dense(big.size(), 10), ws);
    std::vector<float> small(1000, 0.0f);
    const std::vector<float> src = random_dense(small.size(), 11);
    for (int round = 0; round < 2; ++round) {
        sparse::begin_count(ws, small.size());
        sparse::accumulate_counted(small, 0, src, ws);
        sparse::topk_select_counted(small, 10, ws, out);
        EXPECT_EQ(out, sparse::topk_select(small, 10)) << "round " << round;
    }
}

}  // namespace
