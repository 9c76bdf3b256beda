// Per-rank span tracer with virtual-clock and host-clock stamps.
//
// The cluster's timing story lives on the virtual clock (see
// comm/virtual_clock.hpp), but phases like forward/backward compute are
// host-timed; a span therefore carries BOTH clocks' start/end stamps.
// Chrome-trace export puts every rank on its own "process" with two
// "threads": tid 0 is the virtual timeline (the paper's alpha-beta time)
// and tid 1 the host timeline, so Perfetto shows the modeled schedule and
// the implementation cost side by side.
//
// Threading contract: each rank's ring buffer is written ONLY by that
// rank's worker thread (the Communicator and trainer always trace their own
// rank), so recording is a plain store — no locks, no atomics. Cross-thread
// observations (a sender stamping the destination's queue depth) go through
// the atomic MetricsRegistry instead. Readers (export, tests) run after the
// cluster joins.
//
// Disabled path: every instrumentation site holds a nullable Tracer*; with
// a null tracer, ScopedSpan's constructor/destructor reduce to one branch
// each, so tracing costs nothing when off.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "comm/virtual_clock.hpp"
#include "obs/metrics.hpp"

namespace gtopk::obs {

/// Optional span payload; -1 / negative means "not set" and is omitted from
/// the export.
struct SpanAttrs {
    std::int64_t bytes = -1;  // wire bytes moved by this phase
    std::int64_t nnz = -1;    // sparse entries involved
    int peer = -1;            // peer rank of a point-to-point phase
    int tag = -1;             // message tag
    int round = -1;           // collective round / tree level / iteration
};

struct Span {
    const char* name = "";      // must have static storage (string literals)
    const char* category = "";  // "comm" | "collective" | "agg" | "train"
    int rank = 0;
    int depth = 0;  // nesting level at open time (0 = top level)
    double v_begin_s = 0.0, v_end_s = 0.0;  // virtual clock
    double h_begin_s = 0.0, h_end_s = 0.0;  // host steady clock
    SpanAttrs attrs;
};

/// Host steady-clock now, in seconds (arbitrary epoch; export normalizes).
double host_now_s();

class Tracer {
public:
    /// One ring buffer per rank, each holding the most recent
    /// `capacity_per_rank` spans (older spans are overwritten, counted in
    /// dropped()).
    explicit Tracer(int world_size, std::size_t capacity_per_rank = 1 << 16);

    int world_size() const { return static_cast<int>(ranks_.size()); }
    std::size_t capacity_per_rank() const { return capacity_; }

    /// Append a finished span to `span.rank`'s ring buffer. Must be called
    /// from that rank's own thread (see the threading contract above).
    void record(const Span& span);

    /// Record a span stamped on a timeline other than the rank clock (a
    /// NIC transfer, an async handle's op), which overlaps its siblings and
    /// so cannot be a ScopedSpan: it nests at the rank's current depth, its
    /// host end is now, and an unset (zero) host begin is now too.
    void record_detached(Span span);

    /// Nesting bookkeeping used by ScopedSpan: returns the depth for a span
    /// opening now on `rank` and increments the rank's open-span count.
    int enter(int rank);
    void exit(int rank);

    /// Retained spans, oldest first (at most capacity_per_rank).
    std::vector<Span> rank_spans(int rank) const;
    /// Total spans ever recorded on / overwritten out of `rank`'s buffer.
    std::uint64_t recorded(int rank) const;
    std::uint64_t dropped(int rank) const;

    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    /// Chrome-trace (a.k.a. Perfetto legacy JSON) export: object form with
    /// "traceEvents" plus a top-level "metrics" dump. Timestamps are in
    /// microseconds; tid 0 carries virtual time, tid 1 host time.
    void write_chrome_trace(std::ostream& os) const;
    /// Returns false (and logs) when the file cannot be written.
    bool write_chrome_trace_file(const std::string& path) const;

private:
    struct RankBuffer {
        std::vector<Span> ring;     // capacity_ slots once full
        std::size_t next = 0;       // ring insert position
        std::uint64_t pushed = 0;   // lifetime count
        int open_depth = 0;         // currently-open ScopedSpans
    };

    std::vector<std::unique_ptr<RankBuffer>> ranks_;
    std::size_t capacity_;
    MetricsRegistry metrics_;
};

/// RAII span: stamps both clocks at construction and again at finish() /
/// destruction, then records into the tracer. With a null tracer every
/// member is a no-op behind one branch.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const comm::VirtualClock& clock, int rank,
               const char* name, const char* category)
        : tracer_(tracer), clock_(&clock) {
        if (!tracer_) return;
        span_.name = name;
        span_.category = category;
        span_.rank = rank;
        span_.depth = tracer_->enter(rank);
        span_.v_begin_s = clock.now_s();
        span_.h_begin_s = host_now_s();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() { finish(); }

    /// Close the span now (idempotent; the destructor then does nothing).
    void finish() {
        if (!tracer_) return;
        span_.v_end_s = clock_->now_s();
        span_.h_end_s = host_now_s();
        tracer_->exit(span_.rank);
        tracer_->record(span_);
        tracer_ = nullptr;
    }

    bool enabled() const { return tracer_ != nullptr; }
    /// Attribute slot; writable even when disabled (the stores are trivial
    /// and keeping call sites branch-free reads better).
    SpanAttrs& attrs() { return span_.attrs; }

private:
    Tracer* tracer_;
    const comm::VirtualClock* clock_;
    Span span_{};
};

/// Phase totals of the trainer loop derived from a rank's spans: host time
/// for the compute/select phases, virtual time for the aggregation phase —
/// the same convention as TrainResult's accumulator-based means.
struct PhaseTotals {
    double compute_host_s = 0.0;
    double compress_host_s = 0.0;
    double comm_virtual_s = 0.0;
    std::uint64_t iterations = 0;

    double mean_compute_s() const { return iterations ? compute_host_s / static_cast<double>(iterations) : 0.0; }
    double mean_compress_s() const { return iterations ? compress_host_s / static_cast<double>(iterations) : 0.0; }
    double mean_comm_virtual_s() const { return iterations ? comm_virtual_s / static_cast<double>(iterations) : 0.0; }
};

PhaseTotals summarize_train_phases(const Tracer& tracer, int rank);

}  // namespace gtopk::obs
