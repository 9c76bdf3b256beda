// Randomized robustness tests: the wire decoder must never accept corrupt
// input silently, the mailbox must keep per-stream order under message
// storms, and the aggregation stack must stay total over random inputs.
// Corruption is driven by the fault transport's own bit-flip injector
// (comm::corrupt_bytes) so the fuzz corpus matches what a chaos run
// actually puts on the wire. Runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>

#include "comm/cluster.hpp"
#include "comm/fault_transport.hpp"
#include "comm/mailbox.hpp"
#include "comm/tags.hpp"
#include "comm/tcp_frame.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"

namespace {

using gtopk::comm::kTagTestData;

using namespace gtopk;
using util::Xoshiro256;

TEST(WireFuzz, RandomBytesNeverDecodeSilently) {
    Xoshiro256 rng(0xF022);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t len = rng.next_below(200);
        std::vector<std::byte> junk(len);
        for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
        try {
            const sparse::SparseGradient g = sparse::deserialize(junk);
            // If it decoded, it must be a fully valid canonical gradient
            // whose re-serialization reproduces the input exactly.
            EXPECT_NO_THROW(g.validate());
            EXPECT_EQ(sparse::serialize(g), junk);
        } catch (const std::invalid_argument&) {
            // Expected for almost all inputs.
        }
    }
}

TEST(WireFuzz, BitFlippedValidPayloadsEitherThrowOrStayCanonical) {
    Xoshiro256 rng(77);
    std::vector<float> dense(500);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    const auto g = sparse::topk_select(dense, 40);
    const auto valid = sparse::serialize(g);
    for (int trial = 0; trial < 500; ++trial) {
        auto corrupted = valid;
        const std::size_t pos = rng.next_below(corrupted.size());
        corrupted[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
        try {
            const auto decoded = sparse::deserialize(corrupted);
            EXPECT_NO_THROW(decoded.validate());
        } catch (const std::invalid_argument&) {
        }
    }
}

TEST(WireFuzz, TruncationsAlwaysThrow) {
    Xoshiro256 rng(78);
    std::vector<float> dense(300);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    const auto valid = sparse::serialize(sparse::topk_select(dense, 25));
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const std::vector<std::byte> prefix(valid.begin(),
                                            valid.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW((void)sparse::deserialize(prefix), std::invalid_argument)
            << "prefix length " << len;
    }
}

TEST(WireFuzz, ViewAndOwningDecoderAgreeOnCorruptedPayloads) {
    // The zero-copy deserialize_view must accept exactly the same inputs as
    // the owning deserialize: for every corrupted payload either BOTH throw
    // std::invalid_argument or BOTH decode to the same gradient. Corruption
    // uses the chaos transport's injector, so this is the precise
    // rejection-path coverage for what a corrupt_prob plan produces.
    Xoshiro256 rng(0xC0DE);
    std::vector<float> dense(600);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    const auto valid = sparse::serialize(sparse::topk_select(dense, 48));
    for (int trial = 0; trial < 2000; ++trial) {
        auto corrupted = valid;
        comm::corrupt_bytes(corrupted, rng, /*flips=*/1 + static_cast<int>(
                                                            rng.next_below(4)));
        bool owning_threw = false;
        sparse::SparseGradient owning;
        try {
            owning = sparse::deserialize(corrupted);
        } catch (const std::invalid_argument&) {
            owning_threw = true;
        }
        bool view_threw = false;
        sparse::SparseGradient via_view;
        try {
            via_view = sparse::deserialize_view(corrupted).materialize();
        } catch (const std::invalid_argument&) {
            view_threw = true;
        }
        ASSERT_EQ(view_threw, owning_threw) << "decoders disagree, trial " << trial;
        if (!owning_threw) {
            EXPECT_NO_THROW(owning.validate());
            // Bitwise comparison via re-serialization: a flipped value byte
            // may decode to NaN, where float == would spuriously differ.
            ASSERT_EQ(sparse::serialize(via_view), sparse::serialize(owning))
                << "trial " << trial;
        }
    }
}

TEST(WireFuzz, ViewDecoderRejectsRandomJunk) {
    Xoshiro256 rng(0xF023);
    for (int trial = 0; trial < 2000; ++trial) {
        // Build in a 4-byte-aligned float buffer so alignment never masks a
        // validation bug (the decoder must reject on CONTENT here).
        std::vector<float> backing((rng.next_below(50)));
        auto* p = reinterpret_cast<std::byte*>(backing.data());
        const std::span<std::byte> junk(p, backing.size() * sizeof(float));
        for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
        try {
            const auto view = sparse::deserialize_view(junk);
            EXPECT_NO_THROW(view.materialize().validate());
            EXPECT_EQ(sparse::serialize(view.materialize()),
                      std::vector<std::byte>(junk.begin(), junk.end()));
        } catch (const std::invalid_argument&) {
            // Expected for almost all inputs.
        }
    }
}

TEST(WireFuzz, ViewDecoderThrowsOnEveryTruncation) {
    Xoshiro256 rng(79);
    std::vector<float> dense(300);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    const auto valid = sparse::serialize(sparse::topk_select(dense, 25));
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const std::span<const std::byte> prefix(valid.data(), len);
        EXPECT_THROW((void)sparse::deserialize_view(prefix), std::invalid_argument)
            << "prefix length " << len;
    }
}

TEST(WireFuzz, ViewDecoderRejectsUnalignedPayload) {
    // deserialize_view requires 4-byte alignment; a view over bytes shifted
    // by one must throw rather than read misaligned (UB under UBSan).
    std::vector<float> dense(100);
    Xoshiro256 rng(80);
    for (auto& v : dense) v = static_cast<float>(rng.next_gaussian());
    const auto valid = sparse::serialize(sparse::topk_select(dense, 10));
    std::vector<std::byte> shifted(valid.size() + 1);
    std::copy(valid.begin(), valid.end(), shifted.begin() + 1);
    const std::span<const std::byte> unaligned(shifted.data() + 1, valid.size());
    if (reinterpret_cast<std::uintptr_t>(unaligned.data()) % 4 != 0) {
        EXPECT_THROW((void)sparse::deserialize_view(unaligned),
                     std::invalid_argument);
    }
}

TEST(MailboxStress, PerStreamFifoUnderConcurrentStorm) {
    comm::Mailbox mailbox;
    constexpr int kSenders = 4;
    constexpr int kPerSender = 500;
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
        senders.emplace_back([&, s] {
            for (int i = 0; i < kPerSender; ++i) {
                comm::Message m;
                m.source = s;
                m.tag = kTagTestData;
                m.payload.resize(sizeof(int));
                std::memcpy(m.payload.data(), &i, sizeof(int));
                mailbox.push(std::move(m));
            }
        });
    }
    // Consumer polls matched pops interleaved across sources; each
    // source's stream must arrive in order.
    std::vector<int> next(kSenders, 0);
    for (int total = 0; total < kSenders * kPerSender; ++total) {
        std::optional<comm::Message> m;
        while (!(m = mailbox.try_pop(total % kSenders, kTagTestData))) {
            std::this_thread::yield();
        }
        int value = -1;
        std::memcpy(&value, m->payload.data(), sizeof(int));
        EXPECT_EQ(value, next[static_cast<std::size_t>(m->source)]++);
    }
    for (auto& t : senders) t.join();
    EXPECT_EQ(mailbox.size(), 0u);
}

// ---------------------------------------------------------------------------
// TCP frame decoder: what a hostile or half-dead peer can put on a socket.
// The decoder's contract mirrors the receiver loop's: a malformed HEADER
// throws comm::tcp::FrameError (the receiver drops the peer), while an
// incomplete frame is simply "need more bytes" — never UB, never a silent
// accept. Runs under the ASan/UBSan/TSan fuzz label.

std::vector<std::byte> encode_test_frame(int src, int tag, std::size_t payload,
                                         Xoshiro256& rng) {
    comm::Message m;
    m.source = src;
    m.tag = tag;
    m.epoch = static_cast<int>(rng.next_below(4));
    m.arrival_time_s = static_cast<double>(rng.next_below(1000)) * 1e-3;
    m.payload.resize(payload);
    for (auto& b : m.payload) b = static_cast<std::byte>(rng.next_below(256));
    std::vector<std::byte> out;
    comm::tcp::encode_frame(m, static_cast<int>(rng.next_below(8)), out);
    return out;
}

TEST(TcpFrameFuzz, RandomBytesNeverDecodeSilently) {
    Xoshiro256 rng(0x7C91);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t len = rng.next_below(120);
        std::vector<std::byte> junk(len);
        for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
        comm::tcp::FrameDecoder dec;
        dec.feed(junk);
        try {
            while (dec.next()) {
                // A random 44-byte prefix passing magic+version+range checks
                // is astronomically unlikely; if it does, it must have been
                // a well-formed header and re-encoding must not throw.
            }
            // No complete header yet: short input is "need more bytes".
            EXPECT_LT(dec.buffered(), junk.size() + 1);
        } catch (const comm::tcp::FrameError&) {
            // Expected for almost all inputs once a header is present.
            EXPECT_GE(len, comm::tcp::kFrameHeaderBytes);
        }
    }
}

TEST(TcpFrameFuzz, BitFlippedHeadersEitherThrowOrStayWellFormed) {
    Xoshiro256 rng(0x7C92);
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::byte> wire =
            encode_test_frame(3, comm::kAsyncTagBase + 9, 32, rng);
        const std::size_t pos = rng.next_below(comm::tcp::kFrameHeaderBytes);
        wire[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
        comm::tcp::FrameDecoder dec;
        dec.feed(wire);
        try {
            const auto frame = dec.next();
            if (frame) {
                // Survived validation (e.g. a payload bit or a benign field
                // flip): the decoded message must itself re-encode cleanly.
                std::vector<std::byte> out;
                EXPECT_NO_THROW(
                    comm::tcp::encode_frame(frame->msg, frame->dst, out));
            }
            // else: the flip grew payload_len within bounds — more bytes
            // wanted, which the receiver surfaces as EOF-mid-frame.
        } catch (const comm::tcp::FrameError&) {
            // Rejected loudly. The receiver drops the peer.
        }
    }
}

TEST(TcpFrameFuzz, TruncatedStreamsNeverYieldPartialFrames) {
    Xoshiro256 rng(0x7C93);
    std::vector<std::byte> wire;
    for (int i = 0; i < 3; ++i) {
        const auto f = encode_test_frame(i, 100 + i, 10 + 7 * static_cast<std::size_t>(i), rng);
        wire.insert(wire.end(), f.begin(), f.end());
    }
    for (std::size_t len = 0; len < wire.size(); ++len) {
        comm::tcp::FrameDecoder dec;
        dec.feed({wire.data(), len});
        int decoded = 0;
        while (dec.next()) ++decoded;
        EXPECT_LE(decoded, 3);
        // A strict prefix of 3 frames holds at most the complete frames
        // that fully fit; whatever remains is a visible mid-frame residue.
        EXPECT_EQ(dec.mid_frame(), dec.buffered() > 0);
        if (len < comm::tcp::kFrameHeaderBytes) {
            EXPECT_EQ(decoded, 0);
        }
    }
    // The unbroken stream decodes all three exactly.
    comm::tcp::FrameDecoder dec;
    dec.feed(wire);
    int decoded = 0;
    while (dec.next()) ++decoded;
    EXPECT_EQ(decoded, 3);
    EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFrameFuzz, MidFrameDisconnectLeavesDetectableResidue) {
    Xoshiro256 rng(0x7C94);
    const std::vector<std::byte> wire = encode_test_frame(1, 42, 64, rng);
    comm::tcp::FrameDecoder dec;
    // Header plus half the payload, then the peer "dies".
    dec.feed({wire.data(), comm::tcp::kFrameHeaderBytes + 32});
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_TRUE(dec.mid_frame());  // receiver logs the torn frame on EOF
    dec.reset();
    EXPECT_FALSE(dec.mid_frame());
    // The decoder is reusable after a reset.
    dec.feed(wire);
    EXPECT_TRUE(dec.next().has_value());
}

TEST(TcpFrameFuzz, OversizedLengthPrefixRejectedBeforeBuffering) {
    Xoshiro256 rng(0x7C95);
    std::vector<std::byte> wire = encode_test_frame(0, 5, 8, rng);
    // Patch the u64 payload-length field (offset 32) to an absurd claim;
    // the decoder must throw from the header alone instead of waiting to
    // buffer a gigabyte that will never arrive.
    wire[37] = std::byte{0x40};  // payload_len |= 2^45
    comm::tcp::FrameDecoder dec;
    dec.feed({wire.data(), comm::tcp::kFrameHeaderBytes});
    EXPECT_THROW((void)dec.next(), comm::tcp::FrameError);
}

TEST(TcpFrameFuzz, RandomChunkingDecodesStreamsExactly) {
    Xoshiro256 rng(0x7C96);
    for (int trial = 0; trial < 50; ++trial) {
        const int frames = 1 + static_cast<int>(rng.next_below(6));
        std::vector<std::byte> wire;
        std::vector<std::size_t> sizes;
        for (int i = 0; i < frames; ++i) {
            const std::size_t payload = rng.next_below(300);
            sizes.push_back(payload);
            const auto f = encode_test_frame(i % 4, 10 + i, payload, rng);
            wire.insert(wire.end(), f.begin(), f.end());
        }
        comm::tcp::FrameDecoder dec;
        std::vector<std::size_t> got;
        std::size_t off = 0;
        while (off < wire.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(1 + rng.next_below(97), wire.size() - off);
            dec.feed({wire.data() + off, chunk});
            off += chunk;
            while (const auto frame = dec.next()) {
                got.push_back(frame->msg.payload.size());
            }
        }
        EXPECT_EQ(got, sizes) << "trial " << trial;
        EXPECT_FALSE(dec.mid_frame());
    }
}

TEST(AggregationFuzz, RandomShapesNeverCrashAndAlwaysAgree) {
    Xoshiro256 rng(0xABCD);
    for (int trial = 0; trial < 15; ++trial) {
        const int world = 1 + static_cast<int>(rng.next_below(6));
        const std::int64_t m = 1 + static_cast<std::int64_t>(rng.next_below(400));
        const std::size_t k =
            1 + static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(m)));
        std::vector<sparse::SparseGradient> locals;
        for (int r = 0; r < world; ++r) {
            Xoshiro256 wr = rng.fork(static_cast<std::uint64_t>(trial * 100 + r));
            std::vector<float> dense(static_cast<std::size_t>(m));
            for (auto& v : dense) {
                // Mix of zeros, ties and normal values.
                const auto kind = wr.next_below(4);
                v = kind == 0 ? 0.0f
                    : kind == 1
                        ? 1.0f
                        : static_cast<float>(wr.next_gaussian());
            }
            const std::size_t local_k =
                1 + static_cast<std::size_t>(
                        wr.next_below(static_cast<std::uint64_t>(m)));
            locals.push_back(sparse::topk_select(dense, local_k));
        }
        std::vector<sparse::SparseGradient> results(static_cast<std::size_t>(world));
        comm::Cluster::run(world, comm::NetworkModel::free(),
                           [&](comm::Communicator& comm) {
                               results[static_cast<std::size_t>(comm.rank())] =
                                   core::gtopk_allreduce(
                                       comm,
                                       locals[static_cast<std::size_t>(comm.rank())], k)
                                       .global;
                           });
        for (int r = 1; r < world; ++r) {
            ASSERT_EQ(results[static_cast<std::size_t>(r)], results[0])
                << "trial " << trial << " world " << world;
        }
        EXPECT_NO_THROW(results[0].validate());
        EXPECT_LE(results[0].nnz(), k);
    }
}

}  // namespace
