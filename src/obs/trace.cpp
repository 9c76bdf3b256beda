#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/log.hpp"

namespace gtopk::obs {

double host_now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer(int world_size, std::size_t capacity_per_rank)
    : capacity_(capacity_per_rank) {
    if (world_size <= 0) throw std::invalid_argument("Tracer: world_size must be > 0");
    if (capacity_per_rank == 0) throw std::invalid_argument("Tracer: zero capacity");
    ranks_.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        ranks_.push_back(std::make_unique<RankBuffer>());
    }
}

void Tracer::record(const Span& span) {
    RankBuffer& buf = *ranks_.at(static_cast<std::size_t>(span.rank));
    if (buf.ring.size() < capacity_) {
        buf.ring.push_back(span);
    } else {
        buf.ring[buf.next] = span;
    }
    buf.next = (buf.next + 1) % capacity_;
    buf.pushed += 1;
}

void Tracer::record_detached(Span span) {
    span.depth = ranks_.at(static_cast<std::size_t>(span.rank))->open_depth;
    span.h_end_s = host_now_s();
    if (span.h_begin_s == 0.0) span.h_begin_s = span.h_end_s;
    record(span);
}

int Tracer::enter(int rank) {
    return ranks_.at(static_cast<std::size_t>(rank))->open_depth++;
}

void Tracer::exit(int rank) {
    ranks_.at(static_cast<std::size_t>(rank))->open_depth--;
}

std::vector<Span> Tracer::rank_spans(int rank) const {
    const RankBuffer& buf = *ranks_.at(static_cast<std::size_t>(rank));
    std::vector<Span> out;
    out.reserve(buf.ring.size());
    if (buf.ring.size() < capacity_) {
        out = buf.ring;  // not yet wrapped: insertion order is age order
    } else {
        out.insert(out.end(), buf.ring.begin() + static_cast<std::ptrdiff_t>(buf.next),
                   buf.ring.end());
        out.insert(out.end(), buf.ring.begin(),
                   buf.ring.begin() + static_cast<std::ptrdiff_t>(buf.next));
    }
    return out;
}

std::uint64_t Tracer::recorded(int rank) const {
    return ranks_.at(static_cast<std::size_t>(rank))->pushed;
}

std::uint64_t Tracer::dropped(int rank) const {
    const RankBuffer& buf = *ranks_.at(static_cast<std::size_t>(rank));
    return buf.pushed - buf.ring.size();
}

namespace {

void write_escaped(std::ostream& os, const char* s) {
    os << '"';
    for (; *s; ++s) {
        const char c = *s;
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

void write_args(std::ostream& os, const SpanAttrs& a) {
    os << "{";
    bool first = true;
    auto field = [&](const char* key, std::int64_t v) {
        if (v < 0) return;
        if (!first) os << ",";
        first = false;
        os << '"' << key << "\":" << v;
    };
    field("bytes", a.bytes);
    field("nnz", a.nnz);
    field("peer", a.peer);
    field("tag", a.tag);
    field("round", a.round);
    os << "}";
}

void write_event(std::ostream& os, const Span& s, int tid, double ts_us,
                 double dur_us, bool& first_event) {
    if (!first_event) os << ",\n";
    first_event = false;
    os << "{\"name\":";
    write_escaped(os, s.name);
    os << ",\"cat\":";
    write_escaped(os, s.category);
    os << ",\"ph\":\"X\",\"pid\":" << s.rank << ",\"tid\":" << tid
       << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us << ",\"args\":";
    write_args(os, s.attrs);
    os << "}";
}

void write_meta(std::ostream& os, const char* meta, int pid, int tid,
                const std::string& value, bool& first_event) {
    if (!first_event) os << ",\n";
    first_event = false;
    os << "{\"name\":\"" << meta << "\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":";
    write_escaped(os, value.c_str());
    os << "}}";
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
    // Host stamps are steady-clock absolutes; shift them so the earliest
    // retained span starts at t = 0 on the host timeline.
    double h0 = std::numeric_limits<double>::max();
    for (int r = 0; r < world_size(); ++r) {
        for (const Span& s : rank_spans(r)) h0 = std::min(h0, s.h_begin_s);
    }
    if (h0 == std::numeric_limits<double>::max()) h0 = 0.0;

    os << "{\"traceEvents\":[\n";
    bool first = true;
    for (int r = 0; r < world_size(); ++r) {
        write_meta(os, "process_name", r, 0, "rank " + std::to_string(r), first);
        write_meta(os, "thread_name", r, 0, "virtual time", first);
        write_meta(os, "thread_name", r, 1, "host time", first);
        // Ring-buffer accounting so a truncated timeline is detectable from
        // the trace alone: dropped > 0 means the oldest spans were evicted.
        os << ",\n{\"name\":\"span_buffer\",\"ph\":\"M\",\"pid\":" << r
           << ",\"tid\":0,\"args\":{\"recorded\":" << recorded(r)
           << ",\"dropped\":" << dropped(r) << "}}";
        for (const Span& s : rank_spans(r)) {
            write_event(os, s, /*tid=*/0, s.v_begin_s * 1e6,
                        (s.v_end_s - s.v_begin_s) * 1e6, first);
            write_event(os, s, /*tid=*/1, (s.h_begin_s - h0) * 1e6,
                        (s.h_end_s - s.h_begin_s) * 1e6, first);
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"metrics\":";
    metrics_.write_json(os);
    os << "}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        util::log_error("trace: cannot open ", path, " for writing");
        return false;
    }
    write_chrome_trace(out);
    return static_cast<bool>(out);
}

PhaseTotals summarize_train_phases(const Tracer& tracer, int rank) {
    PhaseTotals totals;
    for (const Span& s : tracer.rank_spans(rank)) {
        if (std::strcmp(s.category, "train") != 0) continue;
        if (std::strcmp(s.name, "compute") == 0) {
            totals.compute_host_s += s.h_end_s - s.h_begin_s;
            totals.iterations += 1;
        } else if (std::strcmp(s.name, "select") == 0) {
            totals.compress_host_s += s.h_end_s - s.h_begin_s;
        } else if (std::strcmp(s.name, "aggregate") == 0) {
            totals.comm_virtual_s += s.v_end_s - s.v_begin_s;
        }
    }
    return totals;
}

}  // namespace gtopk::obs
