#include "obs/attribution.hpp"

#include <limits>
#include <ostream>

#include "analysis/cost_rules.hpp"
#include "analysis/verify.hpp"
#include "collectives/schedule.hpp"

namespace gtopk::obs {

namespace {

using collectives::Schedule;

/// The op program behind each proto the trainers attribute — the same
/// generators the live collectives execute. nullopt: no fixed-size schedule
/// exists (variable-byte allgatherv, the PS layer above this library).
std::optional<Schedule> schedule_for(const std::string& proto, int world,
                                     std::int64_t elems, std::int64_t elem_bytes) {
    using namespace collectives;
    if (proto == "allreduce.ring") {
        return allreduce_ring_schedule(world, elems, elem_bytes);
    }
    if (proto == "gtopk.allreduce") {
        return gtopk_allreduce_schedule(world, elems * elem_bytes);
    }
    if (proto == "allgather.recursive_doubling" || proto == "allgather.ring") {
        // The generator itself degrades RecursiveDoubling to the ring on
        // non-power-of-two worlds, matching the live fallback.
        return allgather_schedule(world, elems, elem_bytes,
                                  proto == "allgather.ring"
                                      ? AllgatherAlgo::Ring
                                      : AllgatherAlgo::RecursiveDoubling);
    }
    if (proto == "telemetry.allgather") {
        return telemetry_allgather_schedule(world, elems * elem_bytes);
    }
    return std::nullopt;
}

}  // namespace

CostAttribution::CostAttribution(comm::NetworkModel net, MetricsRegistry* metrics)
    : net_(net), metrics_(metrics) {}

std::optional<double> CostAttribution::observe(const IterSnapshot& snap,
                                               const CollectiveSpec& spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Key key{spec.proto, snap.world(), spec.elems, spec.elem_bytes};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        AttributionEntry e;
        e.proto = spec.proto;
        e.world = snap.world();
        e.elems = spec.elems;
        e.elem_bytes = spec.elem_bytes;
        e.m = spec.m;
        e.k = spec.k;
        if (const auto totals = analysis::expected_totals(
                spec.proto, e.world, spec.elems, spec.elem_bytes)) {
            e.predicted_messages = totals->messages;
            e.predicted_bytes = totals->bytes;
        }
        if (const auto sched =
                schedule_for(spec.proto, e.world, spec.elems, spec.elem_bytes)) {
            const analysis::VerifyResult vr = analysis::verify_schedule(*sched, &net_);
            if (vr.ok()) e.predicted_comm_s = vr.critical_path_s;
        }
        it = entries_.emplace(key, std::move(e)).first;
    }

    AttributionEntry& e = it->second;
    // Compare like with like: the prediction is the schedule's critical
    // path, so the measurement is the slowest rank, not the rank mean.
    const double measured = snap.max_comm_virtual_s();
    if (e.iterations == 0) {
        e.first_comm_s = measured;
    } else {
        e.measured_comm_s += measured;
        ++e.steady_iterations;
    }
    ++e.iterations;
    e.measured_bytes += snap.total_wire_bytes();
    for (const RankIterStats& r : snap.ranks) e.measured_messages += r.messages_sent;

    if (metrics_) {
        const std::string base = "obs.model." + spec.proto;
        metrics_->gauge(base + ".measured_s").set(measured);
        if (e.predicted_comm_s) {
            metrics_->gauge(base + ".predicted_s").set(*e.predicted_comm_s);
            metrics_->gauge(base + ".delta_s").set(measured - *e.predicted_comm_s);
            if (*e.predicted_comm_s > 0.0) {
                metrics_->gauge(base + ".ratio").set(measured / *e.predicted_comm_s);
            }
        }
    }
    return e.predicted_comm_s;
}

std::vector<AttributionEntry> CostAttribution::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<AttributionEntry> out;
    out.reserve(entries_.size());
    for (const auto& [key, e] : entries_) out.push_back(e);
    return out;
}

void CostAttribution::write_json(std::ostream& os) const {
    const auto precision = os.precision();
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"alpha_s\":" << net_.alpha_s << ",\"beta_s\":" << net_.beta_s
       << ",\"entries\":[";
    bool first = true;
    for (const AttributionEntry& e : entries()) {
        if (!first) os << ",";
        first = false;
        os << "{\"proto\":\"" << e.proto << "\",\"world\":" << e.world
           << ",\"elems\":" << e.elems << ",\"elem_bytes\":" << e.elem_bytes
           << ",\"m\":" << e.m << ",\"k\":" << e.k
           << ",\"iterations\":" << e.iterations
           << ",\"measured_mean_comm_s\":" << e.mean_measured_comm_s();
        if (e.predicted_comm_s) {
            os << ",\"predicted_comm_s\":" << *e.predicted_comm_s;
        }
        if (const auto d = e.delta_s()) os << ",\"delta_s\":" << *d;
        if (const auto r = e.ratio()) os << ",\"ratio\":" << *r;
        if (e.iterations > 0) {
            os << ",\"measured_bytes_per_iter\":"
               << e.measured_bytes / e.iterations
               << ",\"measured_messages_per_iter\":"
               << e.measured_messages / e.iterations;
        }
        if (e.predicted_bytes) os << ",\"predicted_bytes\":" << *e.predicted_bytes;
        if (e.predicted_messages) {
            os << ",\"predicted_messages\":" << *e.predicted_messages;
        }
        os << "}";
    }
    os << "]}";
    os.precision(precision);
}

}  // namespace gtopk::obs
