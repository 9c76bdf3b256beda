// Metrics registry: named counters, gauges, and log2-bucket histograms.
//
// Cells are lock-free atomics so any thread (a sender stamping the
// destination mailbox depth, a rank counting its own messages) can record
// without serializing the cluster; the registry map itself is only locked on
// first-use creation of a metric. Instances returned by the registry are
// stable for the registry's lifetime, so hot paths cache the pointer once
// and pay a single relaxed atomic op per event afterwards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gtopk::obs {

class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus a running maximum (both doubles).
class Gauge {
public:
    void set(double v) {
        value_.store(v, std::memory_order_relaxed);
        double cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    double value() const { return value_.load(std::memory_order_relaxed); }
    double max() const { return max_.load(std::memory_order_relaxed); }
    /// Restart the running maximum from the current value — lets dashboards
    /// track a per-window high-water mark instead of an all-time one.
    void reset_max() {
        max_.store(value_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
    std::atomic<double> max_{0.0};
};

/// Histogram over non-negative integers with fixed log2 buckets: bucket 0
/// counts exact zeros and bucket b >= 1 counts values v with bit_width(v)
/// == b, i.e. v in [2^(b-1), 2^b - 1]. Fixed buckets keep recording a pure
/// store (no rebalancing) and make message-size / queue-depth distributions
/// comparable across runs.
class Histogram {
public:
    static constexpr int kBuckets = 65;  // zeros + bit widths 1..64

    void record(std::uint64_t v);

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const {
        const std::uint64_t c = count();
        return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
    }
    std::uint64_t bucket(int i) const {
        return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
    static int bucket_of(std::uint64_t v);
    /// Inclusive [lo, hi] value range covered by bucket i.
    static std::uint64_t bucket_lo(int i);
    static std::uint64_t bucket_hi(int i);

    /// Approximate q-quantile (q in [0, 1]) with linear interpolation
    /// inside the winning log2 bucket; exact at bucket boundaries, within
    /// a factor-of-two band otherwise. 0 when the histogram is empty.
    double quantile(double q) const;

private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
public:
    /// Find-or-create; returned references stay valid for the registry's
    /// lifetime (cells are heap-allocated, the map only stores pointers).
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Lookup without creation; nullptr when the metric was never recorded.
    const Counter* find_counter(const std::string& name) const;
    const Histogram* find_histogram(const std::string& name) const;

    /// One JSON object: {"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, p50, p95, p99,
    /// buckets: [[lo, count], ...]}}}.
    void write_json(std::ostream& os) const;

    /// Human-readable dump, one metric per line, sorted by name — the text
    /// twin of write_json for terminals and log files.
    void write_text(std::ostream& os) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace gtopk::obs
