#include "obs/metrics.hpp"

#include <bit>
#include <limits>
#include <ostream>

namespace gtopk::obs {

int Histogram::bucket_of(std::uint64_t v) { return std::bit_width(v); }

std::uint64_t Histogram::bucket_lo(int i) {
    return i <= 0 ? 0 : (std::uint64_t{1} << (i - 1));
}

std::uint64_t Histogram::bucket_hi(int i) {
    if (i <= 0) return 0;
    if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
}

double Histogram::quantile(double q) const {
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Snapshot the cells once; concurrent recorders may skew count vs
    // buckets by an event or two, which the clamp below absorbs.
    std::array<std::uint64_t, kBuckets> snap;
    std::uint64_t total = 0;
    for (int b = 0; b < kBuckets; ++b) {
        snap[static_cast<std::size_t>(b)] = bucket(b);
        total += snap[static_cast<std::size_t>(b)];
    }
    if (total == 0) return 0.0;
    // Rank of the quantile among `total` ordered samples (1-based).
    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = snap[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        if (static_cast<double>(seen + n) >= target) {
            // Linear interpolation across the bucket's value range by the
            // fraction of the bucket's mass below the target rank.
            const double lo = static_cast<double>(bucket_lo(b));
            const double hi = static_cast<double>(bucket_hi(b));
            const double frac =
                (target - static_cast<double>(seen)) / static_cast<double>(n);
            return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
        }
        seen += n;
    }
    return static_cast<double>(bucket_hi(kBuckets - 1));
}

void Histogram::record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

namespace {

template <typename Map, typename Cell>
Cell& find_or_create(std::mutex& mutex, Map& map, const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = map.find(name);
    if (it == map.end()) {
        it = map.emplace(name, std::make_unique<Cell>()).first;
    }
    return *it->second;
}

template <typename Map>
auto find_only(std::mutex& mutex, const Map& map, const std::string& name)
    -> decltype(map.begin()->second.get()) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(name);
    return it == map.end() ? nullptr : it->second.get();
}

void write_json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            os << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
               << "0123456789abcdef"[c & 0xf];
        } else {
            os << c;
        }
    }
    os << '"';
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
    return find_or_create<decltype(counters_), Counter>(mutex_, counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    return find_or_create<decltype(gauges_), Gauge>(mutex_, gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    return find_or_create<decltype(histograms_), Histogram>(mutex_, histograms_, name);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    return find_only(mutex_, counters_, name);
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
    return find_only(mutex_, histograms_, name);
}

void MetricsRegistry::write_json(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first) os << ",";
        first = false;
        write_json_string(os, name);
        os << ":" << c->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first) os << ",";
        first = false;
        write_json_string(os, name);
        os << ":{\"value\":" << g->value() << ",\"max\":" << g->max() << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first) os << ",";
        first = false;
        write_json_string(os, name);
        os << ":{\"count\":" << h->count() << ",\"sum\":" << h->sum()
           << ",\"p50\":" << h->quantile(0.50) << ",\"p95\":" << h->quantile(0.95)
           << ",\"p99\":" << h->quantile(0.99) << ",\"buckets\":[";
        bool first_bucket = true;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t n = h->bucket(b);
            if (n == 0) continue;
            if (!first_bucket) os << ",";
            first_bucket = false;
            os << "[" << Histogram::bucket_lo(b) << "," << n << "]";
        }
        os << "]}";
    }
    os << "}}";
}

void MetricsRegistry::write_text(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) {
        os << name << " " << c->value() << "\n";
    }
    for (const auto& [name, g] : gauges_) {
        os << name << " value=" << g->value() << " max=" << g->max() << "\n";
    }
    for (const auto& [name, h] : histograms_) {
        os << name << " count=" << h->count() << " mean=" << h->mean()
           << " p50=" << h->quantile(0.50) << " p95=" << h->quantile(0.95)
           << " p99=" << h->quantile(0.99) << "\n";
    }
}

}  // namespace gtopk::obs
