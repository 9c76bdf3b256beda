// Measured-vs-predicted cost attribution: the telemetry consumer that joins
// the per-iteration measured virtual-time phase totals against the alpha-beta
// predictions the static layer already owns — expected_totals
// (analysis/cost_rules.hpp) for message/byte counts and the verified
// schedule's simulated critical path (analysis/verify.hpp) for time. The
// predictor is the SAME op program the live collective executes, so the
// prediction is exact for any world size, uneven ring blocks included; a
// nonzero delta on a fault-free run means the implementation and the model
// disagree, which is a bug in one of them.
//
// Entries are keyed by (proto, world, elems, elem_bytes): a density-warmup
// schedule lands each epoch's k in its own entry, and a membership regroup
// moves subsequent iterations to the survivor-world entry. Each entry's
// first observed iteration is excluded from the measured mean — the
// virtual clocks start mutually unsynchronized, and the first pass through a
// schedule absorbs that skew before the steady state repeats exactly.
//
// Thread contract: observe() is serialized by the Telemetry sink mutex; the
// internal mutex additionally makes entries()/write_json() safe mid-run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "comm/network_model.hpp"
#include "obs/telemetry.hpp"

namespace gtopk::obs {

struct AttributionEntry {
    std::string proto;
    int world = 0;
    std::int64_t elems = 0;
    std::int64_t elem_bytes = 0;
    std::int64_t m = 0;
    std::int64_t k = 0;

    /// All iterations observed under this key.
    std::int64_t iterations = 0;
    /// Iterations past the per-key transient (the first observation).
    std::int64_t steady_iterations = 0;
    /// Sum over steady iterations of the mean-across-ranks aggregate-phase
    /// virtual time.
    double measured_comm_s = 0.0;
    /// The excluded first observation, reported separately.
    double first_comm_s = 0.0;
    /// Cluster-wide wire traffic summed over ALL iterations (bytes are
    /// exact from iteration one).
    std::int64_t measured_bytes = 0;
    std::int64_t measured_messages = 0;

    /// Per-iteration predictions (nullopt: no closed form / variable bytes).
    std::optional<double> predicted_comm_s;
    std::optional<std::int64_t> predicted_bytes;
    std::optional<std::int64_t> predicted_messages;

    double mean_measured_comm_s() const {
        if (steady_iterations > 0) {
            return measured_comm_s / static_cast<double>(steady_iterations);
        }
        return iterations > 0 ? first_comm_s : 0.0;
    }
    std::optional<double> delta_s() const {
        if (!predicted_comm_s) return std::nullopt;
        return mean_measured_comm_s() - *predicted_comm_s;
    }
    /// measured / predicted; 1.0 means the model is exact.
    std::optional<double> ratio() const {
        if (!predicted_comm_s || *predicted_comm_s <= 0.0) return std::nullopt;
        return mean_measured_comm_s() / *predicted_comm_s;
    }
};

class CostAttribution {
public:
    /// `metrics` (optional) receives obs.model.* gauges on every observe:
    /// obs.model.<proto>.measured_s / .predicted_s / .delta_s / .ratio.
    explicit CostAttribution(comm::NetworkModel net,
                             MetricsRegistry* metrics = nullptr);

    /// Join one snapshot against the model under `spec`'s key. Returns the
    /// per-iteration predicted aggregate-phase time when the proto has an
    /// exact-byte schedule (rides into the telemetry JSONL line).
    std::optional<double> observe(const IterSnapshot& snap,
                                  const CollectiveSpec& spec);

    std::vector<AttributionEntry> entries() const;

    /// {"alpha_s":..,"beta_s":..,"entries":[{...}]} — the JSON report.
    void write_json(std::ostream& os) const;

private:
    struct Key {
        std::string proto;
        int world;
        std::int64_t elems;
        std::int64_t elem_bytes;
        bool operator<(const Key& o) const {
            if (proto != o.proto) return proto < o.proto;
            if (world != o.world) return world < o.world;
            if (elems != o.elems) return elems < o.elems;
            return elem_bytes < o.elem_bytes;
        }
    };

    comm::NetworkModel net_;
    MetricsRegistry* metrics_;
    mutable std::mutex mutex_;
    std::map<Key, AttributionEntry> entries_;
};

}  // namespace gtopk::obs
