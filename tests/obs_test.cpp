#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>

#include "comm/cluster.hpp"
#include "comm/tags.hpp"
#include "comm/network_model.hpp"
#include "core/aggregators.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p_handles.hpp"
#include "sparse/topk_select.hpp"
#include "train/trainer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using gtopk::comm::Cluster;
using gtopk::comm::Communicator;
using gtopk::comm::NetworkModel;
using gtopk::comm::kTagTestData;
using gtopk::comm::VirtualClock;
using gtopk::obs::Histogram;
using gtopk::obs::PhaseTotals;
using gtopk::obs::ScopedSpan;
using gtopk::obs::Span;
using gtopk::obs::Tracer;

// --- A minimal recursive-descent JSON validator: enough of RFC 8259 to
// prove the Chrome-trace export is well-formed (objects, arrays, strings
// with escapes, numbers, literals). Returns false on any syntax error.
class JsonValidator {
public:
    explicit JsonValidator(const std::string& text) : s_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() || !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_]))) {
                            return false;
                        }
                    }
                } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;  // closing quote
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        return pos_ > start;
    }
    bool literal(const char* word) {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

Span make_span(int rank, const char* name, double v0, double v1) {
    Span s;
    s.name = name;
    s.category = "test";
    s.rank = rank;
    s.v_begin_s = v0;
    s.v_end_s = v1;
    return s;
}

TEST(MetricsTest, CounterAndGauge) {
    gtopk::obs::MetricsRegistry reg;
    reg.counter("a").add(3);
    reg.counter("a").add(2);
    EXPECT_EQ(reg.counter("a").value(), 5u);
    EXPECT_EQ(reg.find_counter("missing"), nullptr);

    reg.gauge("g").set(2.5);
    reg.gauge("g").set(1.0);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.gauge("g").max(), 2.5);
}

TEST(MetricsTest, HistogramLog2Buckets) {
    Histogram h;
    // bucket 0 <- 0; bucket 1 <- 1; bucket 2 <- {2, 3}; bucket 3 <- {4..7}
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull}) h.record(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 17u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(Histogram::bucket_lo(3), 4u);
    EXPECT_EQ(Histogram::bucket_hi(3), 7u);
    EXPECT_NEAR(h.mean(), 17.0 / 6.0, 1e-12);
}

TEST(MetricsTest, HistogramQuantiles) {
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    // 90 samples of 1 (an exact single-value bucket), 10 large outliers.
    Histogram h;
    for (int i = 0; i < 90; ++i) h.record(1);
    for (int i = 0; i < 10; ++i) h.record(1u << 20);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.9), 1.0);
    // p95 lands inside the outlier bucket, interpolated within its range.
    const double p95 = h.quantile(0.95);
    EXPECT_GE(p95, static_cast<double>(Histogram::bucket_lo(21)));
    EXPECT_LE(p95, static_cast<double>(Histogram::bucket_hi(21)));
    // Monotone in q, clamped at the ends.
    EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
    EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_LE(h.quantile(2.0), static_cast<double>(Histogram::bucket_hi(21)));
}

TEST(MetricsTest, GaugeResetMaxRearmsTheHighWaterMark) {
    gtopk::obs::MetricsRegistry reg;
    auto& g = reg.gauge("depth");
    g.set(5.0);
    g.set(2.0);
    EXPECT_DOUBLE_EQ(g.max(), 5.0);
    g.reset_max();
    // The mark restarts from the CURRENT value, not zero.
    EXPECT_DOUBLE_EQ(g.max(), 2.0);
    g.set(3.0);
    EXPECT_DOUBLE_EQ(g.max(), 3.0);
}

TEST(MetricsTest, WriteTextAndJsonCarryQuantiles) {
    gtopk::obs::MetricsRegistry reg;
    reg.counter("msgs").add(7);
    reg.gauge("depth").set(2.5);
    auto& h = reg.histogram("bytes");
    for (int i = 0; i < 10; ++i) h.record(64);

    std::ostringstream text;
    reg.write_text(text);
    const std::string t = text.str();
    EXPECT_NE(t.find("msgs 7"), std::string::npos) << t;
    EXPECT_NE(t.find("depth"), std::string::npos);
    EXPECT_NE(t.find("p95="), std::string::npos);

    std::ostringstream json;
    reg.write_json(json);
    const std::string j = json.str();
    EXPECT_TRUE(JsonValidator(j).valid()) << j;
    EXPECT_NE(j.find("\"p50\""), std::string::npos);
    EXPECT_NE(j.find("\"p95\""), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

TEST(TracerTest, RingBufferWraparound) {
    Tracer tracer(1, /*capacity_per_rank=*/4);
    for (int i = 0; i < 10; ++i) {
        Span s = make_span(0, "s", i, i + 1);
        s.attrs.round = i;
        tracer.record(s);
    }
    EXPECT_EQ(tracer.recorded(0), 10u);
    EXPECT_EQ(tracer.dropped(0), 6u);
    const auto spans = tracer.rank_spans(0);
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first: the surviving spans are rounds 6, 7, 8, 9.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(spans[static_cast<std::size_t>(i)].attrs.round, 6 + i);
}

TEST(TracerTest, ScopedSpanNesting) {
    Tracer tracer(1);
    VirtualClock clock;
    {
        ScopedSpan outer(&tracer, clock, 0, "outer", "test");
        clock.advance(1.0);
        {
            ScopedSpan inner(&tracer, clock, 0, "inner", "test");
            clock.advance(2.0);
        }
        clock.advance(1.0);
    }
    ScopedSpan after(&tracer, clock, 0, "after", "test");
    after.finish();

    const auto spans = tracer.rank_spans(0);
    ASSERT_EQ(spans.size(), 3u);
    // Children close (and record) before parents.
    EXPECT_STREQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 1);
    EXPECT_STREQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].depth, 0);
    EXPECT_STREQ(spans[2].name, "after");
    EXPECT_EQ(spans[2].depth, 0);  // depth resets once the stack unwinds
    // The child's virtual window nests inside the parent's.
    EXPECT_GE(spans[0].v_begin_s, spans[1].v_begin_s);
    EXPECT_LE(spans[0].v_end_s, spans[1].v_end_s);
    EXPECT_DOUBLE_EQ(spans[0].v_end_s - spans[0].v_begin_s, 2.0);
    EXPECT_DOUBLE_EQ(spans[1].v_end_s - spans[1].v_begin_s, 4.0);
    // Host stamps are monotone over the span.
    EXPECT_GE(spans[1].h_end_s, spans[1].h_begin_s);
}

TEST(TracerTest, DisabledTracerAddsNoSpans) {
    // Null-tracer ScopedSpan is a no-op (and attrs stay writable).
    VirtualClock clock;
    {
        ScopedSpan span(nullptr, clock, 0, "ghost", "test");
        span.attrs().bytes = 123;
        EXPECT_FALSE(span.enabled());
    }

    // A cluster run WITHOUT a tracer leaves an existing tracer untouched.
    Tracer tracer(2);
    Cluster::run(2, NetworkModel::free(), [](Communicator& comm) {
        EXPECT_EQ(comm.tracer(), nullptr);
        std::vector<float> v{1.0f, 2.0f};
        if (comm.rank() == 0) {
            gtopk::test::send_vec(comm, 1, kTagTestData, v);
        } else {
            (void)gtopk::test::recv_vec<float>(comm, 0, kTagTestData);
        }
    });
    EXPECT_EQ(tracer.recorded(0), 0u);
    EXPECT_EQ(tracer.recorded(1), 0u);
}

TEST(TracerTest, ClusterRejectsUndersizedTracer) {
    Tracer tracer(2);
    EXPECT_THROW(Cluster::run(4, NetworkModel::free(),
                              [](Communicator&) {}, &tracer),
                 std::invalid_argument);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
    const int world = 4;
    Tracer tracer(world);
    Cluster::run(world, NetworkModel::one_gbps_ethernet(),
                 [](Communicator& comm) {
                     gtopk::util::Xoshiro256 rng(
                         17 + static_cast<std::uint64_t>(comm.rank()));
                     std::vector<float> dense(4096);
                     for (auto& x : dense) x = static_cast<float>(rng.next_gaussian());
                     const auto local = gtopk::sparse::topk_select(dense, 64);
                     (void)gtopk::core::gtopk_allreduce(comm, local, 64);
                 },
                 &tracer);

    std::ostringstream oss;
    tracer.write_chrome_trace(oss);
    const std::string json = oss.str();

    EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
    // Required span inventory: merge rounds, broadcast, point-to-point
    // phases (the gTop-k handle's NIC-timeline sends and receives),
    // per-rank process metadata.
    EXPECT_NE(json.find("\"gtopk.merge_round\""), std::string::npos);
    EXPECT_NE(json.find("\"gtopk.broadcast\""), std::string::npos);
    EXPECT_NE(json.find("\"send_async\""), std::string::npos);
    EXPECT_NE(json.find("\"recv_async\""), std::string::npos);
    EXPECT_NE(json.find("\"rank 3\""), std::string::npos);
    EXPECT_NE(json.find("\"virtual time\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(TracerTest, ChromeTraceReportsDroppedSpanCounts) {
    Tracer tracer(1, /*capacity_per_rank=*/4);
    VirtualClock clock;
    for (int i = 0; i < 10; ++i) {
        Span s = make_span(0, "s", i, i + 1);
        tracer.record(s);
    }
    std::ostringstream oss;
    tracer.write_chrome_trace(oss);
    const std::string json = oss.str();
    EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
    // The span_buffer metadata row makes ring truncation visible to anyone
    // reading the timeline: 10 recorded, 6 fell off the 4-deep ring.
    EXPECT_NE(json.find("\"span_buffer\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\":10"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":6"), std::string::npos);
}

TEST(TracerTest, TrainerPhaseTotalsMatchAccumulators) {
    const int workers = 4;
    gtopk::data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 6;
    gtopk::data::SyntheticImageDataset dataset(dcfg, /*seed=*/1);
    gtopk::data::ShardedSampler sampler(1024, 256, workers, /*seed=*/2);
    gtopk::nn::MlpConfig mcfg;
    mcfg.input_dim = dataset.feature_dim();
    mcfg.hidden_dims = {16};

    gtopk::train::TrainConfig config;
    config.algorithm = gtopk::train::Algorithm::GtopkSsgd;
    config.epochs = 2;
    config.iters_per_epoch = 10;
    config.density = 0.02;

    gtopk::obs::Tracer tracer(workers);
    config.tracer = &tracer;

    const auto result = gtopk::train::train_distributed(
        workers, gtopk::comm::NetworkModel::one_gbps_ethernet(), config,
        [&](std::uint64_t seed) { return gtopk::nn::make_mlp(mcfg, seed); },
        [&](std::int64_t step, int rank) {
            return dataset.batch_flat(sampler.batch_indices(step, rank, 8));
        },
        {});

    const PhaseTotals& tp = result.rank0_traced_phases;
    EXPECT_EQ(tp.iterations, 20u);
    // Virtual time is deterministic: trace and accumulator read the same
    // clock, so the comm phase matches to double precision.
    EXPECT_NEAR(tp.mean_comm_virtual_s(), result.mean_comm_virtual_s,
                1e-12 * (1.0 + result.mean_comm_virtual_s));
    // Host-timed phases differ only by the span bookkeeping outside the
    // stamps; allow 1% plus a fixed few-microsecond slack for the stamp
    // bookkeeping itself, which dominates once a phase shrinks to
    // microseconds (the workspace-reusing select under TSan).
    EXPECT_NEAR(tp.mean_compute_s(), result.mean_compute_s,
                0.01 * result.mean_compute_s + 1e-5);
    EXPECT_NEAR(tp.mean_compress_s(), result.mean_compress_s,
                0.01 * result.mean_compress_s + 1e-5);

    // Every rank recorded spans; none wrapped at this scale.
    for (int r = 0; r < workers; ++r) {
        EXPECT_GT(tracer.recorded(r), 0u) << "rank " << r;
        EXPECT_EQ(tracer.dropped(r), 0u) << "rank " << r;
    }
    // gTop-k merge rounds happened on every iteration: the P=4 tree does
    // 3 pairwise merges per invocation (2 in round 0, 1 in round 1), each
    // counted once on its receiving rank.
    EXPECT_EQ(tracer.metrics().counter("gtopk.merge_rounds").value(),
              static_cast<std::uint64_t>(20 * 3));
}

TEST(LogFormatTest, TimestampAndRankPrefix) {
    using gtopk::util::format_log_line;
    using gtopk::util::LogLevel;
    const std::string with_rank = format_log_line(LogLevel::Info, "hello", 3);
    // "[I HH:MM:SS.mmm r03] hello"
    ASSERT_GE(with_rank.size(), 21u);
    EXPECT_EQ(with_rank[0], '[');
    EXPECT_EQ(with_rank[1], 'I');
    EXPECT_EQ(with_rank[5], ':');
    EXPECT_EQ(with_rank[8], ':');
    EXPECT_EQ(with_rank[11], '.');
    EXPECT_NE(with_rank.find(" r03] hello"), std::string::npos);

    const std::string no_rank = format_log_line(LogLevel::Warn, "x", -1);
    EXPECT_EQ(no_rank[1], 'W');
    EXPECT_EQ(no_rank.find(" r"), std::string::npos);
    EXPECT_NE(no_rank.find("] x"), std::string::npos);
}

}  // namespace
