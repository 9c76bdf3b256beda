#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sparse/sparse_gradient.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"

namespace {

using gtopk::sparse::add;
using gtopk::sparse::from_mask;
using gtopk::sparse::from_pairs;
using gtopk::sparse::SparseGradient;
using gtopk::sparse::sparse_topk;
using gtopk::sparse::topk_merge;

SparseGradient make(std::int64_t m, std::vector<std::int32_t> idx,
                    std::vector<float> vals) {
    SparseGradient g;
    g.dense_size = m;
    g.indices = std::move(idx);
    g.values = std::move(vals);
    g.validate();
    return g;
}

TEST(SparseGradient, ValidateAcceptsCanonical) {
    EXPECT_NO_THROW(make(10, {0, 3, 9}, {1, 2, 3}));
    EXPECT_NO_THROW(make(10, {}, {}));
}

TEST(SparseGradient, ValidateRejectsBrokenInvariants) {
    SparseGradient g;
    g.dense_size = 5;
    g.indices = {1, 1};
    g.values = {1, 2};
    EXPECT_THROW(g.validate(), std::invalid_argument);  // duplicate
    g.indices = {3, 1};
    EXPECT_THROW(g.validate(), std::invalid_argument);  // unsorted
    g.indices = {1, 7};
    EXPECT_THROW(g.validate(), std::invalid_argument);  // out of range
    g.indices = {1};
    EXPECT_THROW(g.validate(), std::invalid_argument);  // |V| != |I|
}

TEST(SparseGradient, ToDenseAndScatter) {
    const auto g = make(6, {1, 4}, {2.5f, -1.0f});
    const auto dense = g.to_dense();
    const std::vector<float> expect{0, 2.5f, 0, 0, -1.0f, 0};
    EXPECT_EQ(dense, expect);

    std::vector<float> acc(6, 1.0f);
    g.scatter_add(acc);
    EXPECT_EQ(acc[1], 3.5f);
    EXPECT_EQ(acc[4], 0.0f);
    EXPECT_EQ(acc[0], 1.0f);
}

TEST(SparseGradient, ScaleAndNorm) {
    auto g = make(4, {0, 2}, {2.0f, -3.0f});
    EXPECT_DOUBLE_EQ(g.l1_norm(), 5.0);
    g.scale(0.5f);
    EXPECT_EQ(g.values[0], 1.0f);
    EXPECT_EQ(g.values[1], -1.5f);
}

TEST(SparseGradient, FromMask) {
    const std::vector<float> dense{1, 2, 3, 4};
    const std::vector<std::uint8_t> keep{1, 0, 0, 1};
    const auto g = from_mask(dense, keep);
    EXPECT_EQ(g.indices, (std::vector<std::int32_t>{0, 3}));
    EXPECT_EQ(g.values, (std::vector<float>{1, 4}));
    EXPECT_THROW(from_mask(dense, std::vector<std::uint8_t>{1}), std::invalid_argument);
}

TEST(SparseGradient, FromPairsSortsAndValidates) {
    const auto g = from_pairs(10, {7, 2, 5}, {70, 20, 50});
    EXPECT_EQ(g.indices, (std::vector<std::int32_t>{2, 5, 7}));
    EXPECT_EQ(g.values, (std::vector<float>{20, 50, 70}));
    EXPECT_THROW(from_pairs(10, {1, 1}, {1, 2}), std::invalid_argument);
}

TEST(SparseAdd, MergesDisjointAndOverlapping) {
    const auto a = make(8, {0, 3}, {1, 2});
    const auto b = make(8, {3, 5}, {10, 20});
    const auto c = add(a, b);
    EXPECT_EQ(c.indices, (std::vector<std::int32_t>{0, 3, 5}));
    EXPECT_EQ(c.values, (std::vector<float>{1, 12, 20}));
}

TEST(SparseAdd, EmptyIsIdentity) {
    const auto a = make(8, {2}, {5});
    SparseGradient zero;
    zero.dense_size = 8;
    EXPECT_EQ(add(a, zero), a);
    EXPECT_EQ(add(zero, a), a);
}

TEST(SparseAdd, RejectsMismatchedSpaces) {
    const auto a = make(8, {2}, {5});
    const auto b = make(9, {2}, {5});
    EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(SparseTopk, KeepsLargestMagnitudes) {
    const auto g = make(10, {1, 3, 5, 7}, {1.0f, -9.0f, 4.0f, -2.0f});
    const auto t = sparse_topk(g, 2);
    EXPECT_EQ(t.indices, (std::vector<std::int32_t>{3, 5}));
    EXPECT_EQ(t.values, (std::vector<float>{-9.0f, 4.0f}));
}

TEST(SparseTopk, NoopWhenAlreadySmall) {
    const auto g = make(10, {1}, {5.0f});
    EXPECT_EQ(sparse_topk(g, 3), g);
}

TEST(SparseTopk, TieBreaksBySmallerIndex) {
    const auto g = make(10, {2, 4, 6}, {1.0f, -1.0f, 1.0f});
    const auto t = sparse_topk(g, 2);
    EXPECT_EQ(t.indices, (std::vector<std::int32_t>{2, 4}));
}

TEST(ReturnUnselected, AddsBackOnlyEntriesMissingFromTheGlobalSelection) {
    // Alg. 4 line 10: locally sent entries 1 and 6 lost the global
    // selection and return to the residual; 3 survived and stays sent.
    const SparseGradient local = make(8, {1, 3, 6}, {0.5f, -2.0f, 1.5f});
    const std::vector<std::int32_t> global{0, 3, 7};
    std::vector<float> residual(8, 1.0f);
    gtopk::sparse::return_unselected(residual, local, global);
    EXPECT_EQ(residual,
              (std::vector<float>{1.0f, 1.5f, 1.0f, 1.0f, 1.0f, 1.0f, 2.5f, 1.0f}));
}

TEST(TopkMergeOp, MatchesDefinition1) {
    // G_a + G_b, then top-k of the sum.
    const auto a = make(8, {0, 2}, {3.0f, 1.0f});
    const auto b = make(8, {2, 5}, {1.5f, -4.0f});
    const auto m = topk_merge(a, b, 2);
    // Sum: {0: 3, 2: 2.5, 5: -4} -> top-2 = {5: -4, 0: 3}
    EXPECT_EQ(m.indices, (std::vector<std::int32_t>{0, 5}));
    EXPECT_EQ(m.values, (std::vector<float>{3.0f, -4.0f}));
}

TEST(TopkMergeOp, IsCommutative) {
    gtopk::util::Xoshiro256 rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<float> da(64), db(64);
        for (auto& v : da) v = static_cast<float>(rng.next_gaussian());
        for (auto& v : db) v = static_cast<float>(rng.next_gaussian());
        const auto a = gtopk::sparse::topk_select(da, 8);
        const auto b = gtopk::sparse::topk_select(db, 8);
        EXPECT_EQ(topk_merge(a, b, 8), topk_merge(b, a, 8));
    }
}

TEST(TopkMergeOp, IsNotAssociativeInGeneral) {
    // Documented counterexample: cancellation makes ⊤ order-dependent,
    // which is why Algorithm 3 (tree fold) and Algorithm 2 (global
    // selection) are distinct algorithms.
    const auto a = make(4, {1}, {1.0f});
    const auto b = make(4, {2}, {1.5f});
    const auto c = make(4, {1}, {1.0f});
    const auto d = make(4, {2}, {-1.4f});
    const auto left = topk_merge(topk_merge(a, b, 1), topk_merge(c, d, 1), 1);
    // Tree: (a⊤b) = {2:1.5}, (c⊤d) = {1:1.0}; merge -> {2:1.5}.
    EXPECT_EQ(left.indices, (std::vector<std::int32_t>{2}));
    // Global top-1 of a+b+c+d = {1: 2.0}.
    const auto global = sparse_topk(add(add(a, b), add(c, d)), 1);
    EXPECT_EQ(global.indices, (std::vector<std::int32_t>{1}));
    EXPECT_NE(left.indices, global.indices);
}

TEST(Wire, RoundTripsCanonicalGradient) {
    const auto g = make(100, {0, 17, 99}, {1.5f, -2.5f, 3.5f});
    const auto bytes = gtopk::sparse::serialize(g);
    EXPECT_EQ(bytes.size(), gtopk::sparse::wire_size_bytes(3));
    EXPECT_EQ(gtopk::sparse::deserialize(bytes), g);
}

TEST(Wire, RoundTripsEmpty) {
    SparseGradient g;
    g.dense_size = 42;
    EXPECT_EQ(gtopk::sparse::deserialize(gtopk::sparse::serialize(g)), g);
}

TEST(Wire, RejectsTruncatedInput) {
    const auto g = make(10, {1}, {1.0f});
    auto bytes = gtopk::sparse::serialize(g);
    bytes.pop_back();
    EXPECT_THROW(gtopk::sparse::deserialize(bytes), std::invalid_argument);
    EXPECT_THROW(gtopk::sparse::deserialize(std::vector<std::byte>(4)),
                 std::invalid_argument);
}

TEST(Wire, RejectsCorruptHeader) {
    const auto g = make(10, {1, 5}, {1.0f, 2.0f});
    auto bytes = gtopk::sparse::serialize(g);
    // Corrupt nnz to a huge value.
    bytes[8] = std::byte{0xFF};
    bytes[9] = std::byte{0xFF};
    EXPECT_THROW(gtopk::sparse::deserialize(bytes), std::invalid_argument);
}

TEST(Wire, RejectsNonCanonicalPayload) {
    // Hand-build a wire image with unsorted indices; deserialize validates.
    auto g = make(10, {1, 5}, {1.0f, 2.0f});
    auto bytes = gtopk::sparse::serialize(g);
    // Swap the two int32 indices in place.
    std::swap(bytes[16], bytes[20]);
    std::swap(bytes[17], bytes[21]);
    std::swap(bytes[18], bytes[22]);
    std::swap(bytes[19], bytes[23]);
    EXPECT_THROW(gtopk::sparse::deserialize(bytes), std::invalid_argument);
}

// Key-order selection (keep_largest_keys behind the ⊤ merge, the counted
// cut and sparse_topk) against an independent reference: a full sort of
// the entries under magnitude_less, the first k re-sorted by index.

SparseGradient reference_topk(std::int64_t dense_size,
                              const std::vector<std::int32_t>& idx,
                              const std::vector<float>& val, std::size_t k) {
    std::vector<std::size_t> order(idx.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return gtopk::sparse::magnitude_less(val[b], idx[b], val[a], idx[a]);
    });
    order.resize(std::min(k, order.size()));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return idx[a] < idx[b]; });
    SparseGradient out;
    out.dense_size = dense_size;
    for (std::size_t pos : order) {
        out.indices.push_back(idx[pos]);
        out.values.push_back(val[pos]);
    }
    return out;
}

void expect_same_bits(const SparseGradient& got, const SparseGradient& want,
                      const std::string& what) {
    EXPECT_EQ(got.dense_size, want.dense_size) << what;
    ASSERT_EQ(got.indices, want.indices) << what;
    ASSERT_EQ(got.values.size(), want.values.size()) << what;
    for (std::size_t j = 0; j < got.values.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.values[j]),
                  std::bit_cast<std::uint32_t>(want.values[j]))
            << what << ", entry " << j;
    }
}

enum class Pattern { OppositeSigns, SignedZeros, AllEqual, Mixed };

const char* pattern_name(Pattern p) {
    switch (p) {
        case Pattern::OppositeSigns: return "opposite signs";
        case Pattern::SignedZeros: return "signed zeros";
        case Pattern::AllEqual: return "all equal";
        case Pattern::Mixed: return "mixed";
    }
    return "?";
}

float pattern_value(Pattern p, gtopk::util::Xoshiro256& rng) {
    const float sign = rng.next_u64() & 1 ? -1.0f : 1.0f;
    switch (p) {
        case Pattern::OppositeSigns:
            // Few magnitudes, both signs: ties across signs everywhere, and
            // merged pairs that cancel to +0.
            return sign * static_cast<float>(1 + rng.next_u64() % 3);
        case Pattern::SignedZeros:
            // Mostly +-0, so the cut lands among the zeros.
            return rng.next_u64() % 8 == 0 ? sign * 0.5f : sign * 0.0f;
        case Pattern::AllEqual: return sign * 0.25f;
        case Pattern::Mixed:
            switch (rng.next_u64() % 4) {
                case 0: return sign * std::numeric_limits<float>::denorm_min() * 3.0f;
                case 1: return sign * 0.0f;
                default: return static_cast<float>(rng.next_gaussian());
            }
    }
    return 0.0f;
}

constexpr Pattern kPatterns[] = {Pattern::OppositeSigns, Pattern::SignedZeros,
                                 Pattern::AllEqual, Pattern::Mixed};

/// k = 1, n - 1, n and beyond n, plus one cut in the middle.
std::vector<std::size_t> edge_ks(std::size_t n) { return {1, n / 3, n - 1, n, n + 5}; }

/// A canonical sparse gradient over [0, m) holding about a third of it.
SparseGradient pattern_sparse(std::int64_t m, Pattern p, gtopk::util::Xoshiro256& rng) {
    SparseGradient g;
    g.dense_size = m;
    for (std::int32_t i = 0; i < m; ++i) {
        if (rng.next_u64() % 3 != 0) continue;
        g.indices.push_back(i);
        g.values.push_back(pattern_value(p, rng));
    }
    g.validate();
    return g;
}

TEST(KeyOrderSelection, CountedSelectMatchesFullSortReference) {
    gtopk::util::Xoshiro256 rng(41);
    gtopk::sparse::TopkWorkspace ws;
    for (const Pattern p : kPatterns) {
        // 300 entries: four full 64-entry count blocks and a partial one.
        std::vector<float> dense(300);
        for (float& v : dense) v = pattern_value(p, rng);
        std::vector<std::int32_t> all(dense.size());
        std::iota(all.begin(), all.end(), 0);
        for (const std::size_t k : edge_ks(dense.size())) {
            SparseGradient got;
            gtopk::sparse::topk_select_into(dense, k, ws, got);
            expect_same_bits(got, reference_topk(300, all, dense, k),
                             std::string(pattern_name(p)) + ", k=" + std::to_string(k));
        }
    }
}

TEST(KeyOrderSelection, MergeIntoAndSparseTopkMatchFullSortReference) {
    gtopk::util::Xoshiro256 rng(43);
    gtopk::sparse::MergeScratch scratch;
    for (const Pattern p : kPatterns) {
        const SparseGradient a = pattern_sparse(400, p, rng);
        const SparseGradient b = pattern_sparse(400, p, rng);
        const SparseGradient sum = add(a, b);
        for (const std::size_t k : edge_ks(sum.nnz())) {
            const std::string what =
                std::string(pattern_name(p)) + ", k=" + std::to_string(k);
            const SparseGradient want = reference_topk(400, sum.indices, sum.values, k);
            SparseGradient acc = a;
            gtopk::sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k,
                                           scratch);
            expect_same_bits(acc, want, "topk_merge_into, " + what);
            expect_same_bits(topk_merge(a, b, k), want, "topk_merge, " + what);
            expect_same_bits(sparse_topk(sum, k), want, "sparse_topk, " + what);
        }
    }
}

TEST(KeyOrderSelection, KeysOrderLikeMagnitudeLess) {
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> vals{0.0f, -0.0f, tiny, -tiny, 1.0f, -1.0f, 3e38f, -inf, inf};
    for (std::size_t x = 0; x < vals.size(); ++x) {
        for (std::size_t y = 0; y < vals.size(); ++y) {
            for (const std::int32_t ix : {0, 7, std::numeric_limits<std::int32_t>::max()}) {
                for (const std::int32_t iy : {0, 7, 8}) {
                    if (ix == iy) continue;
                    EXPECT_EQ(gtopk::sparse::magnitude_order_key(vals[x], ix) <
                                  gtopk::sparse::magnitude_order_key(vals[y], iy),
                              gtopk::sparse::magnitude_less(vals[x], ix, vals[y], iy))
                        << vals[x] << "@" << ix << " vs " << vals[y] << "@" << iy;
                }
            }
            EXPECT_EQ(gtopk::sparse::key_index(gtopk::sparse::magnitude_order_key(vals[x], 7)),
                      7);
        }
    }
}

}  // namespace
