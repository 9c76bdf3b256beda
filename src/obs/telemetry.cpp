#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "collectives/collectives.hpp"
#include "comm/communicator.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/straggler.hpp"

namespace gtopk::obs {

double IterSnapshot::mean_comm_virtual_s() const {
    if (ranks.empty()) return 0.0;
    double sum = 0.0;
    for (const RankIterStats& r : ranks) sum += r.comm_virtual_s;
    return sum / static_cast<double>(ranks.size());
}

double IterSnapshot::max_comm_virtual_s() const {
    double mx = 0.0;
    for (const RankIterStats& r : ranks) mx = std::max(mx, r.comm_virtual_s);
    return mx;
}

std::int64_t IterSnapshot::total_wire_bytes() const {
    std::int64_t sum = 0;
    for (const RankIterStats& r : ranks) sum += r.wire_bytes_sent;
    return sum;
}

void fold_fault_counters(const MetricsRegistry& metrics, RankIterStats& st) {
    static constexpr const char* kFaultCounters[] = {
        "fault.dropped",   "fault.duplicated",   "fault.reordered",
        "fault.corrupted", "fault.delayed",      "fault.killed_sends",
    };
    std::int64_t faults = 0;
    for (const char* name : kFaultCounters) {
        if (const Counter* c = metrics.find_counter(name)) {
            faults += static_cast<std::int64_t>(c->value());
        }
    }
    st.faults_injected = faults;
    if (const Counter* c = metrics.find_counter("reliable.retransmits")) {
        st.retransmits = static_cast<std::int64_t>(c->value());
    }
}

/// Per-physical-rank scratch, touched only by the owning worker thread: the
/// cached schedule (regenerated when the logical view changes, i.e. after a
/// regroup) and the rank's own snapshot view. The schedule keeps only this
/// rank's program, the one part its handle reads, so the copy each exchange
/// hands the handle is O(P), not O(P^2).
struct Telemetry::RankSlot {
    collectives::Schedule sched;
    int sched_world = 0;
    int sched_rank = -1;
    IterSnapshot snap;
};

Telemetry::Telemetry(int world_size) : Telemetry(world_size, Config{}) {}

Telemetry::Telemetry(int world_size, Config cfg) : cfg_(std::move(cfg)) {
    if (world_size <= 0) {
        throw std::invalid_argument("Telemetry: world_size must be > 0");
    }
    if (cfg_.history == 0) throw std::invalid_argument("Telemetry: zero history");
    slots_.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        slots_.push_back(std::make_unique<RankSlot>());
    }
    if (!cfg_.jsonl_path.empty()) {
        jsonl_ = std::make_unique<std::ofstream>(cfg_.jsonl_path,
                                                 std::ios::out | std::ios::trunc);
        if (!*jsonl_) {
            throw std::invalid_argument("Telemetry: cannot open jsonl_path " +
                                        cfg_.jsonl_path);
        }
    }
}

Telemetry::~Telemetry() = default;

const IterSnapshot& Telemetry::exchange(comm::Communicator& comm,
                                        RankIterStats mine,
                                        const CollectiveSpec* spec) {
    const int lrank = comm.rank();
    const int world = comm.size();
    RankSlot& slot = *slots_.at(static_cast<std::size_t>(comm.physical_rank()));

    mine.physical_rank = comm.physical_rank();
    mine.logical_rank = lrank;
    mine.epoch = comm.epoch();

    if (slot.sched_world != world || slot.sched_rank != lrank) {
        slot.sched = collectives::telemetry_allgather_schedule(
            world, static_cast<std::int64_t>(sizeof(RankIterStats)));
        for (int r = 0; r < world; ++r) {
            if (r != lrank) slot.sched.ranks[static_cast<std::size_t>(r)].clear();
        }
        slot.sched_world = world;
        slot.sched_rank = lrank;
    }

    slot.snap.step = mine.step;
    slot.snap.epoch = mine.epoch;
    std::vector<RankIterStats>& rows = slot.snap.ranks;
    rows.assign(static_cast<std::size_t>(world), RankIterStats{});
    rows[static_cast<std::size_t>(lrank)] = mine;

    // One absolute-tag handle: the exchange never draws from the SPMD tag
    // cursor, and a lone handle's sends and waits keep the blocking
    // alpha-beta clock.
    using collectives::CommOp;
    collectives::detail::run(
        comm, slot.sched,
        [&rows](const CommOp& op) {
            return std::as_bytes(std::span<const RankIterStats>(
                &rows[static_cast<std::size_t>(op.a)], 1));
        },
        [&rows](const CommOp& op, std::span<const std::byte> bytes) {
            if (bytes.size() != sizeof(RankIterStats)) {
                throw std::runtime_error(
                    "telemetry: stats wire size mismatch (peer speaks a "
                    "different RankIterStats layout?)");
            }
            std::memcpy(&rows[static_cast<std::size_t>(op.a)], bytes.data(),
                        sizeof(RankIterStats));
        });

    // The lead drives the shared sinks. Logical rank 0 always exists and is
    // unique within a view; across a regroup the lead may move to another
    // physical rank, which the sink mutex makes safe.
    if (lrank == 0) lead_sink(slot.snap, spec);
    return slot.snap;
}

void Telemetry::lead_sink(const IterSnapshot& snap, const CollectiveSpec* spec) {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    ++exchanges_;
    if (history_.size() < cfg_.history) {
        history_.push_back(snap);
    } else {
        history_[history_next_] = snap;
    }
    history_next_ = (history_next_ + 1) % cfg_.history;

    std::optional<double> predicted;
    if (attribution_ && spec) predicted = attribution_->observe(snap, *spec);
    if (straggler_) straggler_->observe(snap);
    if (recorder_) recorder_->add_snapshot(snap);
    if (jsonl_) {
        write_snapshot_jsonl(*jsonl_, snap, spec, predicted ? &*predicted : nullptr);
    }
}

std::vector<IterSnapshot> Telemetry::snapshots() const {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    std::vector<IterSnapshot> out;
    out.reserve(history_.size());
    if (history_.size() < cfg_.history) {
        out = history_;  // not yet wrapped: insertion order is age order
    } else {
        out.insert(out.end(),
                   history_.begin() + static_cast<std::ptrdiff_t>(history_next_),
                   history_.end());
        out.insert(out.end(), history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(history_next_));
    }
    return out;
}

std::int64_t Telemetry::exchanges() const {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    return exchanges_;
}

void write_snapshot_jsonl(std::ostream& os, const IterSnapshot& snap,
                          const CollectiveSpec* spec,
                          const double* predicted_comm_s) {
    const auto flags = os.flags();
    const auto precision = os.precision();
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"step\":" << snap.step << ",\"epoch\":" << snap.epoch
       << ",\"world\":" << snap.world();
    if (spec) {
        os << ",\"proto\":\"" << spec->proto << "\",\"m\":" << spec->m
           << ",\"k\":" << spec->k;
    }
    os << ",\"measured_comm_s\":" << snap.mean_comm_virtual_s();
    if (predicted_comm_s) os << ",\"predicted_comm_s\":" << *predicted_comm_s;
    os << ",\"ranks\":[";
    for (std::size_t i = 0; i < snap.ranks.size(); ++i) {
        const RankIterStats& r = snap.ranks[i];
        if (i) os << ",";
        os << "{\"rank\":" << r.physical_rank << ",\"lrank\":" << r.logical_rank
           << ",\"compute_s\":" << r.compute_host_s
           << ",\"select_s\":" << r.compress_host_s
           << ",\"comm_s\":" << r.comm_virtual_s
           << ",\"update_s\":" << r.update_host_s
           << ",\"bytes_out\":" << r.wire_bytes_sent
           << ",\"bytes_in\":" << r.wire_bytes_received
           << ",\"msgs_out\":" << r.messages_sent
           << ",\"msgs_in\":" << r.messages_received << ",\"nnz\":" << r.nnz
           << ",\"mailbox\":" << r.mailbox_depth
           << ",\"faults\":" << r.faults_injected
           << ",\"retransmits\":" << r.retransmits << "}";
    }
    os << "]}\n";
    os.flags(flags);
    os.precision(precision);
}

}  // namespace gtopk::obs
