// Hot-path equivalence tests: the pooled-buffer / zero-copy-view /
// workspace-reusing fast paths introduced for the allocation-free hot path
// must be bit-identical to their owning counterparts, and the wire view
// must reject malformed bytes exactly like the owning deserializer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/cluster.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
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

SparseGradient sample_gradient(std::size_t m, std::size_t k, std::uint64_t seed) {
    return sparse::topk_select(random_dense(m, seed), k);
}

// ---------------------------------------------------------------- wire view

TEST(WireView, RoundTripMatchesOwningDeserialize) {
    const SparseGradient g = sample_gradient(4096, 100, 7);
    const auto bytes = sparse::serialize(g);
    const sparse::SparseGradientView v = sparse::deserialize_view(bytes);
    EXPECT_EQ(v.dense_size, g.dense_size);
    ASSERT_EQ(v.nnz(), g.nnz());
    EXPECT_TRUE(std::equal(v.indices.begin(), v.indices.end(), g.indices.begin()));
    EXPECT_TRUE(std::equal(v.values.begin(), v.values.end(), g.values.begin()));
    EXPECT_EQ(v.materialize(), sparse::deserialize(bytes));
}

TEST(WireView, EmptyGradientRoundTrips) {
    SparseGradient g;
    g.dense_size = 5;
    const auto bytes = sparse::serialize(g);
    const sparse::SparseGradientView v = sparse::deserialize_view(bytes);
    EXPECT_EQ(v.dense_size, 5);
    EXPECT_EQ(v.nnz(), 0u);
    EXPECT_EQ(v.materialize(), g);
    std::vector<float> dense(5, 1.0f);
    v.scatter_add(dense);  // no-op, must not touch anything
    for (float x : dense) EXPECT_EQ(x, 1.0f);
}

TEST(WireView, ScatterAddMatchesMaterializedScatter) {
    const SparseGradient g = sample_gradient(512, 40, 3);
    const auto bytes = sparse::serialize(g);
    std::vector<float> a(512, 0.5f);
    std::vector<float> b = a;
    sparse::deserialize_view(bytes).scatter_add(a);
    for (std::size_t i = 0; i < g.nnz(); ++i) {
        b[static_cast<std::size_t>(g.indices[i])] += g.values[i];
    }
    EXPECT_EQ(a, b);
}

TEST(WireView, TruncatedAndCorruptBytesThrow) {
    const SparseGradient g = sample_gradient(1024, 16, 11);
    const auto bytes = sparse::serialize(g);
    // Truncated header and truncated payload.
    EXPECT_THROW(sparse::deserialize_view({bytes.data(), 8}), std::invalid_argument);
    EXPECT_THROW(sparse::deserialize_view({bytes.data(), bytes.size() - 4}),
                 std::invalid_argument);
    // Garbage that is long enough to parse a header.
    const std::vector<std::byte> junk(24, std::byte{0xAB});
    EXPECT_THROW(sparse::deserialize_view(junk), std::invalid_argument);
    // Out-of-range index (first index -> dense_size + 1).
    std::vector<std::byte> bad = bytes;
    const std::int32_t huge = static_cast<std::int32_t>(g.dense_size) + 1;
    std::memcpy(bad.data() + 16, &huge, sizeof(huge));
    EXPECT_THROW(sparse::deserialize_view(bad), std::invalid_argument);
    // Non-increasing indices (duplicate the second index into the first).
    std::vector<std::byte> dup = bytes;
    std::memcpy(dup.data() + 16, dup.data() + 20, 4);
    EXPECT_THROW(sparse::deserialize_view(dup), std::invalid_argument);
}

TEST(WireView, MisalignedPayloadThrowsInsteadOfAliasing) {
    const SparseGradient g = sample_gradient(256, 8, 5);
    const auto bytes = sparse::serialize(g);
    std::vector<std::byte> shifted(bytes.size() + 1);
    std::memcpy(shifted.data() + 1, bytes.data(), bytes.size());
    EXPECT_THROW(
        sparse::deserialize_view({shifted.data() + 1, bytes.size()}),
        std::invalid_argument);
}

TEST(WireView, SerializeIntoReusesCapacityAndMatchesSerialize) {
    const SparseGradient big = sample_gradient(4096, 200, 1);
    const SparseGradient small = sample_gradient(4096, 10, 2);
    std::vector<std::byte> buf;
    sparse::serialize_into(big, buf);
    EXPECT_EQ(buf, sparse::serialize(big));
    const std::size_t cap = buf.capacity();
    sparse::serialize_into(small, buf);
    EXPECT_EQ(buf, sparse::serialize(small));
    EXPECT_EQ(buf.capacity(), cap);  // shrink never reallocates
    sparse::serialize_into(big, buf);
    EXPECT_EQ(buf, sparse::serialize(big));
    EXPECT_EQ(buf.capacity(), cap);  // regrow within old capacity either
}

// -------------------------------------------------------------- buffer pool

TEST(BufferPool, RecyclesReleasedBuffers) {
    comm::BufferPool pool;
    auto a = pool.acquire(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(pool.stats().acquires, 1u);
    EXPECT_EQ(pool.stats().pool_hits, 0u);  // nothing to reuse yet
    pool.release(std::move(a));
    EXPECT_EQ(pool.free_count(), 1u);
    auto b = pool.acquire(60);  // fits in the recycled 100-byte buffer
    EXPECT_EQ(b.size(), 60u);
    EXPECT_GE(b.capacity(), 100u);
    EXPECT_EQ(pool.stats().pool_hits, 1u);
    EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, BestFitPrefersSmallestSufficientBuffer) {
    comm::BufferPool pool;
    pool.release(std::vector<std::byte>(1000));
    pool.release(std::vector<std::byte>(100));
    const auto got = pool.acquire(50);
    EXPECT_GE(got.capacity(), 100u);
    EXPECT_LT(got.capacity(), 1000u);  // took the 100-byte one
    EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(BufferPool, RetentionIsCapped) {
    comm::BufferPool pool;
    for (int i = 0; i < 12; ++i) {
        pool.release(std::vector<std::byte>(64));
    }
    EXPECT_LE(pool.free_count(), comm::BufferPool::kMaxFree);
    EXPECT_EQ(pool.stats().releases, 12u);
    EXPECT_EQ(pool.stats().dropped, 12u - comm::BufferPool::kMaxFree);
}

TEST(BufferPool, PooledBufferReleasesOnDestructionAndMove) {
    comm::BufferPool pool;
    {
        comm::PooledBuffer buf(pool.acquire(32), &pool);
        EXPECT_EQ(buf.size(), 32u);
        comm::PooledBuffer moved = std::move(buf);
        EXPECT_EQ(moved.size(), 32u);
        EXPECT_EQ(pool.free_count(), 0u);  // still owned by `moved`
    }
    EXPECT_EQ(pool.free_count(), 1u);  // exactly one release despite the move
    EXPECT_EQ(pool.stats().releases, 1u);
}

// ---------------------------------------------------- selection equivalence
//
// The workspace path's candidate pre-filter is the exact histogram cut
// (DESIGN.md §9): it must agree with the FullSort reference and the one-shot
// introselect on every input, including ones built to stress the cut bin.

sparse::SparseGradient exact_reference(std::span<const float> dense, std::size_t k) {
    return sparse::topk_select(dense, k);  // one-shot m-entry introselect
}

void expect_prefilter_invariant(std::span<const float> dense, std::size_t k) {
    sparse::TopkWorkspace ws;
    const SparseGradient sorted =
        sparse::topk_select(dense, k, sparse::TopkStrategy::FullSort);
    EXPECT_EQ(sparse::topk_select(dense, k, ws), sorted)
        << "m=" << dense.size() << " k=" << k;
    EXPECT_EQ(exact_reference(dense, k), sorted) << "m=" << dense.size() << " k=" << k;
}

/// Float with the given magnitude key bin (sign-cleared bits >> 20) and
/// low mantissa bits `low` (< 2^20), so entries can be placed in a chosen
/// histogram bin.
float in_bin(std::uint32_t bin, std::uint32_t low, bool negative = false) {
    const std::uint32_t bits = (bin << sparse::kHistogramShift) | low |
                               (negative ? 0x80000000u : 0u);
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

TEST(TopkPrefilter, GaussianMatchesExact) {
    const auto dense = random_dense(1 << 15, 21);
    expect_prefilter_invariant(dense, 128);
    expect_prefilter_invariant(dense, 33);  // rho = 0.001
}

TEST(TopkPrefilter, HeavyTailMatchesExact) {
    auto dense = random_dense(1 << 15, 22);
    for (auto& v : dense) v = v * v * v;  // cube: heavy-tailed magnitudes
    expect_prefilter_invariant(dense, 128);
    auto cauchy = random_dense(1 << 15, 122);
    for (std::size_t i = 0; i + 1 < cauchy.size(); i += 2) {
        // Ratio of Gaussians: Cauchy tails.
        cauchy[i] = cauchy[i] / (std::abs(cauchy[i + 1]) + 1e-30f);
    }
    expect_prefilter_invariant(cauchy, 64);
}

TEST(TopkPrefilter, MassiveTiesMatchExact) {
    // Quantize to very few distinct magnitudes so ties abound and the
    // index tie-break carries the ordering.
    auto dense = random_dense(1 << 15, 23);
    for (auto& v : dense) v = std::round(v * 2.0f) / 2.0f;
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, AllZeroMatchesExact) {
    const std::vector<float> dense(1 << 15, 0.0f);
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, StridedSpikesMatchExact) {
    // Spikes on a regular stride with k above their count: the cut bin
    // falls into the small background and its candidates must still hold
    // the tie-broken top-k.
    const std::size_t m = 1 << 15;
    auto dense = random_dense(m, 24);
    for (auto& v : dense) v *= 0.01f;
    for (std::size_t i = 0; i < m; i += 16) dense[i] = 10.0f;
    expect_prefilter_invariant(dense, 4096);  // k > number of spikes (2048)
    expect_prefilter_invariant(dense, 2048);  // k == number of spikes
    expect_prefilter_invariant(dense, 2047);
}

TEST(TopkPrefilter, SmallAndDegenerateCasesMatch) {
    const auto small = random_dense(1000, 25);
    expect_prefilter_invariant(small, 10);
    sparse::TopkWorkspace ws;
    // k == 0 and k >= m mirror the one-shot degenerate semantics.
    EXPECT_EQ(sparse::topk_select(small, 0, ws), exact_reference(small, 0));
    EXPECT_EQ(sparse::topk_select(small, 1000, ws), exact_reference(small, 1000));
    EXPECT_EQ(sparse::topk_select(small, 5000, ws), exact_reference(small, 5000));
    // No size threshold: every k of every tiny vector, with ties.
    for (std::size_t m = 1; m <= 40; ++m) {
        std::vector<float> v = random_dense(m, 200 + m);
        for (std::size_t i = 0; i < m; i += 3) v[i] = std::round(v[i]);
        for (std::size_t k = 1; k < m; ++k) expect_prefilter_invariant(v, k);
    }
}

TEST(TopkPrefilter, ExtremeKMatchesExact) {
    for (const std::size_t m : {2u, 3u, 1000u, 1u << 15}) {
        const auto dense = random_dense(m, 300 + m);
        expect_prefilter_invariant(dense, 1);
        expect_prefilter_invariant(dense, m - 1);
    }
}

TEST(TopkPrefilter, SignedZerosAndDenormalsMatchExact) {
    // ±0.0 share one key and compare equal: the index decides. Denormals
    // span the bottom bins, below the smallest normal.
    const std::size_t m = 4096;
    std::vector<float> dense(m);
    const float denorm_min = std::numeric_limits<float>::denorm_min();
    const float normal_min = std::numeric_limits<float>::min();
    for (std::size_t i = 0; i < m; ++i) {
        const float sign = (i & 8) ? -1.0f : 1.0f;
        switch (i % 4) {
            case 0: dense[i] = 0.0f; break;
            case 1: dense[i] = -0.0f; break;
            case 2: dense[i] = sign * static_cast<float>(i % 97) * denorm_min; break;
            default: dense[i] = sign * normal_min * ((i & 16) ? 0.5f : 1.0f);
        }
    }
    for (const std::size_t k : {1u, 100u, 1024u, 1500u, 2000u, 3000u, 4095u}) {
        expect_prefilter_invariant(dense, k);
    }
}

TEST(TopkPrefilter, AllEqualMagnitudesMatchExact) {
    std::vector<float> dense(1 << 12);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        dense[i] = (i % 3 == 0) ? -0.75f : 0.75f;
    }
    for (const std::size_t k : {1u, 7u, 2048u, 4095u}) {
        expect_prefilter_invariant(dense, k);
    }
}

TEST(TopkPrefilter, CutBinHoldingAroundKEntriesMatchesExact) {
    // The top bin holds exactly k-1, k or k+1 entries (with ties inside
    // it), the next bin down the rest of the top; background below.
    const std::size_t m = 1 << 13;
    const std::size_t k = 64;
    for (const std::size_t top : {k - 1, k, k + 1}) {
        auto dense = random_dense(m, 400 + top);
        for (auto& v : dense) v *= 1e-3f;
        for (std::size_t j = 0; j < top; ++j) {
            dense[(j * 97) % m] = in_bin(1100, static_cast<std::uint32_t>(j % 5), j & 1);
        }
        for (std::size_t j = 0; j < 8; ++j) {
            dense[(j * 97 + 13) % m] = in_bin(1099, static_cast<std::uint32_t>(j), j & 1);
        }
        expect_prefilter_invariant(dense, k);
        expect_prefilter_invariant(dense, k - 1);
        expect_prefilter_invariant(dense, k + 1);
    }
}

TEST(TopkPrefilter, NonFiniteEntriesThrowDomainError) {
    auto dense = random_dense(1 << 12, 500);
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    dense[17] = std::numeric_limits<float>::quiet_NaN();
    dense[900] = -std::numeric_limits<float>::infinity();
    try {
        sparse::topk_select_into(dense, 16, ws, out);
        FAIL() << "non-finite input was selected from";
    } catch (const std::domain_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 non-finite"), std::string::npos) << what;
        EXPECT_NE(what.find("4096"), std::string::npos) << what;
    }
    // One NaN alone is enough; the workspace stays usable afterwards.
    dense[900] = 1.0f;
    EXPECT_THROW(sparse::topk_select_into(dense, 16, ws, out), std::domain_error);
    dense[17] = 0.5f;
    sparse::topk_select_into(dense, 16, ws, out);
    EXPECT_EQ(out, exact_reference(dense, 16));
}

TEST(TopkPrefilter, WorkspaceReuseAcrossDifferentSizes) {
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    for (const std::size_t m : {1u << 15, 1u << 10, 1u << 16}) {
        const auto dense = random_dense(m, 26 + m);
        sparse::topk_select_into(dense, m / 256, ws, out);
        EXPECT_EQ(out, exact_reference(dense, m / 256));
    }
}

TEST(TopkSelect, HeapAndFullSortDelegateUnchanged) {
    sparse::TopkWorkspace ws;
    const auto dense = random_dense(5000, 27);
    for (const auto strategy :
         {sparse::TopkStrategy::Heap, sparse::TopkStrategy::FullSort}) {
        EXPECT_EQ(sparse::topk_select(dense, 50, ws, {.strategy = strategy}),
                  sparse::topk_select(dense, 50, strategy));
    }
}

TEST(KthMagnitude, WorkspaceOverloadMatchesFresh) {
    sparse::TopkWorkspace ws;
    const auto dense = random_dense(10'000, 28);
    for (const std::size_t k : {1u, 7u, 100u, 10'000u, 20'000u}) {
        EXPECT_EQ(sparse::kth_largest_magnitude(dense, k),
                  sparse::kth_largest_magnitude(dense, k, ws));
    }
    EXPECT_EQ(sparse::kth_largest_magnitude(dense, 0, ws), 0.0f);
}

// ------------------------------------------------------- in-place ⊤ merge

void expect_merge_equivalent(const SparseGradient& a, const SparseGradient& b,
                             std::size_t k) {
    sparse::MergeScratch scratch;
    SparseGradient acc = a;
    sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
    EXPECT_EQ(acc, sparse::topk_merge(a, b, k));
}

TEST(TopkMergeInto, MatchesTopkMergeOnOverlapAndDisjoint) {
    const SparseGradient a = sample_gradient(2048, 64, 31);
    const SparseGradient b = sample_gradient(2048, 64, 32);  // partial overlap
    expect_merge_equivalent(a, b, 64);
    expect_merge_equivalent(a, b, 10);   // heavy truncation
    expect_merge_equivalent(a, b, 500);  // nnz < k: pure union
    expect_merge_equivalent(a, a, 64);   // full overlap (values double)
}

TEST(TopkMergeInto, CancellationProducesIdenticalSelection) {
    // b annihilates a on the shared indices; the zero-magnitude survivors
    // must rank identically in both implementations.
    SparseGradient a = sample_gradient(1024, 32, 33);
    SparseGradient b = a;
    for (auto& v : b.values) v = -v;
    expect_merge_equivalent(a, b, 32);
    expect_merge_equivalent(a, b, 8);
}

TEST(TopkMergeInto, EmptySidesAndScratchReuse) {
    sparse::MergeScratch scratch;
    SparseGradient empty;
    empty.dense_size = 1024;
    const SparseGradient g = sample_gradient(1024, 16, 34);
    SparseGradient acc = empty;
    sparse::topk_merge_into(acc, g.dense_size, g.indices, g.values, 16, scratch);
    EXPECT_EQ(acc, g);
    // Reuse the same scratch with the operands swapped.
    acc = g;
    sparse::topk_merge_into(acc, empty.dense_size, empty.indices, empty.values, 16,
                            scratch);
    EXPECT_EQ(acc, g);
}

TEST(TopkMergeInto, DenseSizeMismatchThrows) {
    sparse::MergeScratch scratch;
    SparseGradient acc;
    acc.dense_size = 100;
    const SparseGradient g = sample_gradient(200, 8, 35);
    EXPECT_THROW(
        sparse::topk_merge_into(acc, g.dense_size, g.indices, g.values, 8, scratch),
        std::invalid_argument);
}

// -------------------------------------------- pooled aggregation end-to-end

TEST(PooledGtopk, BitIdenticalToOwningPath) {
    for (const int world : {5, 8}) {  // 5 exercises the non-power-of-two fold
        std::vector<SparseGradient> pooled_out(static_cast<std::size_t>(world));
        std::vector<SparseGradient> owning_out(static_cast<std::size_t>(world));
        for (const bool pooled : {false, true}) {
            auto& out = pooled ? pooled_out : owning_out;
            comm::Cluster::run(
                world, comm::NetworkModel::free(), [&](comm::Communicator& comm) {
                    const SparseGradient local = sample_gradient(
                        4096, 128, 40 + static_cast<std::uint64_t>(comm.rank()));
                    core::GtopkWorkspace ws;
                    core::GtopkOptions options;
                    options.pooled = pooled;
                    if (pooled) options.workspace = &ws;
                    for (int round = 0; round < 3; ++round) {
                        const auto r =
                            core::gtopk_allreduce(comm, local, 128, options);
                        if (round == 0) {
                            out[static_cast<std::size_t>(comm.rank())] = r.global;
                        } else {
                            ASSERT_EQ(r.global,
                                      out[static_cast<std::size_t>(comm.rank())]);
                        }
                    }
                });
        }
        EXPECT_EQ(pooled_out, owning_out) << "world=" << world;
        for (int r = 1; r < world; ++r) {
            EXPECT_EQ(pooled_out[static_cast<std::size_t>(r)], pooled_out[0]);
        }
    }
}

TEST(PooledGtopk, TopkAllreduceViewPathMatchesDenseSum) {
    // The AllGather path now scatters straight off zero-copy views of the
    // gathered blocks; the result must equal the locally-computed dense sum
    // of every rank's contribution.
    const int world = 4;
    std::vector<SparseGradient> locals;
    for (int r = 0; r < world; ++r) {
        locals.push_back(
            sample_gradient(1024, 32, 60 + static_cast<std::uint64_t>(r)));
    }
    std::vector<float> expect(1024, 0.0f);
    for (const auto& g : locals) {
        for (std::size_t i = 0; i < g.nnz(); ++i) {
            expect[static_cast<std::size_t>(g.indices[i])] += g.values[i];
        }
    }
    comm::Cluster::run(world, comm::NetworkModel::free(),
                       [&](comm::Communicator& comm) {
                           const auto dense = core::topk_allreduce(
                               comm, locals[static_cast<std::size_t>(comm.rank())]);
                           ASSERT_EQ(dense, expect);
                       });
}

}  // namespace
