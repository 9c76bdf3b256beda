// commcheck — static model checker for the collective communication
// schedules (src/analysis/). For every protocol and world size it:
//
//   1. generates the exact op program the live implementation executes
//      (collectives/schedule.hpp, ps/ps_schedule.hpp),
//   2. proves match-completeness, FIFO-unambiguity, deadlock-freedom and
//      tag-range discipline by simulated execution (verify.hpp),
//   3. checks per-rank/total message and byte counts against the closed
//      forms of the paper's Table I (cost_rules.hpp),
//   4. prices the schedule on the alpha-beta clock and compares the
//      critical path against cost_model.hpp where a closed form applies.
//
// Usage:
//   commcheck [--proto all|<name>] [--world 1..64] [--report out.json] [-v]
//   commcheck --survivors [--world 2..16] [--seed N] [-v]
//   commcheck --concurrent [--world 2..16] [-v]
//
// Protocols: barrier broadcast broadcast-flat reduce allreduce-ring
//            allreduce-rd allreduce-rabenseifner allgather allgather-ring
//            allgatherv gather gtopk ps
//
// --survivors verifies the ELASTIC REGROUP path: for every physical world
// in the range it enumerates survivor subsets (every drop-one subset plus
// seeded random multi-death subsets), rebuilds each regroup-regenerated
// protocol over the logical survivor world, remaps it onto the surviving
// physical ranks (remap_schedule — the static mirror of
// Communicator::set_view) and proves (a) all of verify_schedule's
// invariants still hold on the physical schedule and (b) survivor
// confinement: no op lives on or addresses a dead rank.
//
// --concurrent verifies the OVERLAPPED-TRAINING path: for every world in
// the range and several bucket counts it builds the exact schedule set the
// trainer's AsyncCollective handles execute in flight together (one
// bucketed gTop-k = merge + broadcast per bucket), rebases each part onto
// the async-band tag block fresh_async_tags would hand that handle, and
// proves band disjointness, cross-part FIFO-unambiguity, and
// deadlock-freedom of the combined pump-all execution
// (verify_concurrent_schedules).
//
// Exit code 0 iff every check passes.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cost_rules.hpp"
#include "analysis/verify.hpp"
#include "collectives/cost_model.hpp"
#include "collectives/schedule.hpp"
#include "comm/tags.hpp"
#include "obs/telemetry.hpp"
#include "ps/ps_schedule.hpp"
#include "util/rng.hpp"

namespace {

using gtopk::analysis::ExpectedTotals;
using gtopk::analysis::VerifyResult;
using gtopk::analysis::expected_totals;
using gtopk::analysis::verify_schedule;
using namespace gtopk::collectives;

// Representative payload: power-of-two element count so every
// divisibility-gated closed form (rabenseifner, ring Eq. 5) applies on
// power-of-two worlds, and uneven ring blocks get exercised elsewhere.
constexpr std::int64_t kElems = 4096;
constexpr std::int64_t kElemBytes = 4;
constexpr std::int64_t kTopk = 32;                       // gtopk selection size
constexpr std::int64_t kWireBytes = 16 + 8 * kTopk;      // sparse wire payload
constexpr std::int64_t kStatsBytes =                     // telemetry stats block
    static_cast<std::int64_t>(sizeof(gtopk::obs::RankIterStats));

struct ProtoCase {
    std::string name;        // CLI name
    int min_world = 1;
    /// Generate the schedule, or nullopt when the protocol is undefined at
    /// this world size (e.g. power-of-two-only algorithms).
    std::function<std::optional<Schedule>(int world)> make;
    /// Closed-form critical-path seconds, when one applies at this world.
    std::function<std::optional<double>(const gtopk::comm::NetworkModel&, int world)>
        expected_time;
    /// Elements fed to expected_totals (per-protocol meaning).
    std::int64_t elems = kElems;
    std::int64_t elem_bytes = kElemBytes;
};

std::vector<ProtoCase> make_cases() {
    using gtopk::comm::NetworkModel;
    std::vector<ProtoCase> cases;

    cases.push_back({"barrier", 1,
                     [](int w) { return barrier_schedule(w); },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         // Tokens are 1 byte, not 0: allow the beta sliver.
                         if (w == 1) return 0.0;
                         return ilog2_ceil(w) * net.transfer_time_s(1);
                     },
                     1, 1});
    cases.push_back({"broadcast", 1,
                     [](int w) {
                         return broadcast_schedule(w, 0, kElems * kElemBytes,
                                                   BcastAlgo::BinomialTree);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         return broadcast_time_s(net, w,
                                                 static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"broadcast-flat", 1,
                     [](int w) {
                         return broadcast_schedule(w, 0, kElems * kElemBytes,
                                                   BcastAlgo::FlatTree);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         return flat_broadcast_time_s(
                             net, w, static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"reduce", 1,
                     [](int w) { return reduce_schedule(w, 0, kElems * kElemBytes); },
                     [](const NetworkModel&, int) { return std::nullopt; }});
    cases.push_back({"allreduce-ring", 1,
                     [](int w) {
                         return allreduce_ring_schedule(w, kElems, kElemBytes);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         // Eq. 5 is the exact critical path only when the
                         // blocks are even.
                         if (kElems % w != 0) return std::nullopt;
                         return dense_allreduce_time_s(
                             net, w, static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"allreduce-rd", 1,
                     [](int w) -> std::optional<Schedule> {
                         if (w > 1 && !is_power_of_two(w)) return std::nullopt;
                         return allreduce_recursive_doubling_schedule(w, kElems,
                                                                      kElemBytes);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         if (w == 1) return 0.0;
                         return ilog2_floor(w) *
                                net.transfer_time_elems(
                                    static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"allreduce-rabenseifner", 1,
                     [](int w) -> std::optional<Schedule> {
                         if (w > 1 && (!is_power_of_two(w) || kElems % w != 0)) {
                             return std::nullopt;
                         }
                         return allreduce_rabenseifner_schedule(w, kElems, kElemBytes);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         return rabenseifner_allreduce_time_s(
                             net, w, static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"allgather", 1,
                     [](int w) {
                         return allgather_schedule(w, kElems, kElemBytes,
                                                   AllgatherAlgo::RecursiveDoubling);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         // Eq. 6 applies to the recursive-doubling form; the
                         // generator falls back to the ring off powers of two.
                         if (!is_power_of_two(w)) return std::nullopt;
                         return allgather_time_s(net, w,
                                                 static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"allgather-ring", 1,
                     [](int w) {
                         return allgather_schedule(w, kElems, kElemBytes,
                                                   AllgatherAlgo::Ring);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         if (w == 1) return 0.0;
                         return (w - 1) * net.transfer_time_elems(
                                              static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"allgatherv", 1,
                     [](int w) {
                         // Exact per-rank sizes so byte/time checks bind.
                         std::vector<std::int64_t> sizes(
                             static_cast<std::size_t>(w), kElems * kElemBytes);
                         return allgatherv_schedule(
                             w, std::span<const std::int64_t>(sizes));
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         if (w == 1) return 0.0;
                         return (w - 1) * net.transfer_time_elems(
                                              static_cast<std::uint64_t>(kElems));
                     }});
    cases.push_back({"gather", 1,
                     [](int w) { return gather_schedule(w, 0, kElems * kElemBytes); },
                     [](const NetworkModel&, int) { return std::nullopt; }});
    cases.push_back({"gtopk", 1,
                     [](int w) -> std::optional<Schedule> {
                         // The full collective: merge to rank 0, then the
                         // binomial broadcast of the result (Algorithm 3).
                         return gtopk_allreduce_schedule(w, kWireBytes);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         // Eq. 7 with k' = k + 2: the 16-byte wire header
                         // rides along as two extra 4-byte elements.
                         if (!is_power_of_two(w)) return std::nullopt;
                         return gtopk_allreduce_time_s(
                             net, w, static_cast<std::uint64_t>(kTopk + 2));
                     },
                     kWireBytes, 1});
    cases.push_back({"ps", 2,
                     [](int w) {
                         return gtopk::ps::ps_iteration_schedule(
                             w - 1, kElems * kElemBytes, kElems * kElemBytes);
                     },
                     [](const NetworkModel&, int) { return std::nullopt; }});
    cases.push_back({"telemetry", 1,
                     [](int w) {
                         return telemetry_allgather_schedule(w, kStatsBytes);
                     },
                     [](const NetworkModel& net, int w) -> std::optional<double> {
                         // Ring allgather of one stats block per step.
                         if (w == 1) return 0.0;
                         return (w - 1) * net.transfer_time_s(
                                              static_cast<std::uint64_t>(kStatsBytes));
                     },
                     kStatsBytes, 1});
    return cases;
}

struct CaseResult {
    std::string proto;       // schedule proto string
    std::string case_name;   // CLI case
    int world = 0;
    bool skipped = false;
    bool ok = true;
    std::vector<std::string> failures;
    std::int64_t messages = 0;
    std::int64_t bytes = -1;
    double critical_path_s = -1.0;
    double expected_time_s = -1.0;
};

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

bool parse_world_range(const std::string& arg, int& lo, int& hi) {
    const auto dots = arg.find("..");
    try {
        if (dots == std::string::npos) {
            lo = hi = std::stoi(arg);
        } else {
            lo = std::stoi(arg.substr(0, dots));
            hi = std::stoi(arg.substr(dots + 2));
        }
    } catch (const std::exception&) {
        return false;
    }
    return lo >= 1 && hi >= lo;
}

// ---------------------------------------------------------------------------
// --survivors mode: regrouped-schedule verification
// ---------------------------------------------------------------------------

/// The protocols the trainer regenerates after a membership regroup, built
/// over the LOGICAL survivor world (the regrouped Communicator's size()).
struct RegroupProto {
    std::string name;
    std::function<Schedule(int logical_world)> make;
};

std::vector<RegroupProto> make_regroup_protos() {
    std::vector<RegroupProto> protos;
    protos.push_back(
        {"gtopk", [](int w) { return gtopk_allreduce_schedule(w, kWireBytes); }});
    protos.push_back({"barrier", [](int w) { return barrier_schedule(w); }});
    protos.push_back({"broadcast", [](int w) {
                          return broadcast_schedule(w, 0, kElems * kElemBytes,
                                                    BcastAlgo::BinomialTree);
                      }});
    protos.push_back({"allreduce-ring", [](int w) {
                          return allreduce_ring_schedule(w, kElems, kElemBytes);
                      }});
    protos.push_back({"allgather-ring", [](int w) {
                          return allgather_schedule(w, kElems, kElemBytes,
                                                    AllgatherAlgo::Ring);
                      }});
    protos.push_back({"allgatherv", [](int w) {
                          std::vector<std::int64_t> sizes(
                              static_cast<std::size_t>(w), kElems * kElemBytes);
                          return allgatherv_schedule(
                              w, std::span<const std::int64_t>(sizes));
                      }});
    protos.push_back({"telemetry", [](int w) {
                          return telemetry_allgather_schedule(w, kStatsBytes);
                      }});
    return protos;
}

/// All survivor subsets checked for one physical world: every drop-one
/// subset (the common single-failure case the trainer demo exercises), plus
/// seeded random multi-death subsets down to 1 survivor.
std::vector<std::vector<int>> survivor_subsets(int world, std::uint64_t seed) {
    std::vector<std::vector<int>> subsets;
    for (int dead = 0; dead < world; ++dead) {
        std::vector<int> s;
        for (int r = 0; r < world; ++r) {
            if (r != dead) s.push_back(r);
        }
        subsets.push_back(std::move(s));
    }
    gtopk::util::Xoshiro256 rng =
        gtopk::util::Xoshiro256(seed).fork(static_cast<std::uint64_t>(world));
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> s;
        for (int r = 0; r < world; ++r) {
            if (rng.next_double() < 0.5) s.push_back(r);
        }
        if (s.empty()) s.push_back(static_cast<int>(rng.next_double() * world) % world);
        subsets.push_back(std::move(s));
    }
    return subsets;
}

int run_survivor_sweep(int world_lo, int world_hi, std::uint64_t seed,
                       bool verbose) {
    const std::vector<RegroupProto> protos = make_regroup_protos();
    int checked = 0, failed = 0;
    for (int world = std::max(2, world_lo); world <= world_hi; ++world) {
        for (const std::vector<int>& survivors : survivor_subsets(world, seed)) {
            for (const RegroupProto& p : protos) {
                const Schedule logical =
                    p.make(static_cast<int>(survivors.size()));
                const Schedule physical = remap_schedule(
                    logical, std::span<const int>(survivors), world);
                std::vector<std::string> failures;
                // The remapped schedule must satisfy every invariant the
                // original did — peers/tags/FIFO/match/deadlock all survive
                // the rank translation.
                const VerifyResult v = verify_schedule(physical);
                for (const auto& viol : v.violations) {
                    failures.push_back("[" + viol.check + "] rank " +
                                       std::to_string(viol.rank) + ": " +
                                       viol.detail);
                }
                for (const auto& viol : gtopk::analysis::
                         verify_survivor_confinement(
                             physical, std::span<const int>(survivors))) {
                    failures.push_back("[" + viol.check + "] rank " +
                                       std::to_string(viol.rank) + ": " +
                                       viol.detail);
                }
                ++checked;
                if (!failures.empty()) ++failed;
                if (verbose || !failures.empty()) {
                    std::string subset;
                    for (int r : survivors) subset += std::to_string(r) + " ";
                    std::printf("%-16s P=%-3d survivors={ %s} %s\n",
                                p.name.c_str(), world, subset.c_str(),
                                failures.empty() ? "ok" : "FAIL");
                    for (const auto& f : failures) {
                        std::printf("    %s\n", f.c_str());
                    }
                }
            }
        }
    }
    std::printf("commcheck --survivors: %d regrouped schedule(s) verified, "
                "%d failed (worlds %d..%d, seed %llu)\n",
                checked, failed, std::max(2, world_lo), world_hi,
                static_cast<unsigned long long>(seed));
    return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --concurrent mode: overlapped schedule-set verification
// ---------------------------------------------------------------------------

int run_concurrent_sweep(int world_lo, int world_hi, bool verbose) {
    const gtopk::comm::NetworkModel net =
        gtopk::comm::NetworkModel::one_gbps_ethernet();
    constexpr int kBucketCounts[] = {2, 3, 5, 8};
    int checked = 0, failed = 0;
    for (int world = std::max(2, world_lo); world <= world_hi; ++world) {
        for (int buckets : kBucketCounts) {
            // Replay the Communicator's async-band cursor: handle i gets the
            // block starting where handle i-1's ended.
            std::vector<Schedule> parts;
            std::vector<int> bases;
            int cursor = gtopk::comm::kAsyncTagBase;
            for (int b = 0; b < buckets; ++b) {
                // One in-flight bucketed gTop-k handle's schedule — exactly
                // what core::AsyncGtopkAllreduce executes.
                parts.push_back(gtopk_allreduce_schedule(world, kWireBytes));
                bases.push_back(cursor);
                cursor += parts.back().tag_count;
            }
            const VerifyResult v = gtopk::analysis::verify_concurrent_schedules(
                parts, std::span<const int>(bases), &net);
            ++checked;
            if (!v.ok()) ++failed;
            if (verbose || !v.ok()) {
                std::printf("concurrent-gtopk P=%-3d buckets=%d %s\n", world,
                            buckets, v.ok() ? "ok" : "FAIL");
                for (const auto& viol : v.violations) {
                    std::printf("    [%s] rank %d: %s\n", viol.check.c_str(),
                                viol.rank, viol.detail.c_str());
                }
            }
        }
    }
    std::printf("commcheck --concurrent: %d overlapped schedule set(s) "
                "verified, %d failed (worlds %d..%d)\n",
                checked, failed, std::max(2, world_lo), world_hi);
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string proto_filter = "all";
    int world_lo = 1, world_hi = 64;
    std::string report_path;
    bool verbose = false;
    bool survivors_mode = false;
    bool concurrent_mode = false;
    bool world_given = false;
    std::uint64_t seed = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "commcheck: %s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--proto") {
            proto_filter = next();
        } else if (arg == "--world") {
            if (!parse_world_range(next(), world_lo, world_hi)) {
                std::fprintf(stderr, "commcheck: bad --world range\n");
                return 2;
            }
            world_given = true;
        } else if (arg == "--report") {
            report_path = next();
        } else if (arg == "--survivors") {
            survivors_mode = true;
        } else if (arg == "--concurrent") {
            concurrent_mode = true;
        } else if (arg == "--seed") {
            try {
                seed = std::stoull(next());
            } catch (const std::exception&) {
                std::fprintf(stderr, "commcheck: bad --seed\n");
                return 2;
            }
        } else if (arg == "-v" || arg == "--verbose") {
            verbose = true;
        } else if (arg == "-h" || arg == "--help") {
            std::printf(
                "usage: commcheck [--proto all|NAME] [--world LO..HI] "
                "[--report FILE.json] [-v]\n"
                "       commcheck --survivors [--world 2..16] [--seed N] [-v]\n"
                "       commcheck --concurrent [--world 2..16] [-v]\n");
            return 0;
        } else {
            std::fprintf(stderr, "commcheck: unknown argument %s\n", arg.c_str());
            return 2;
        }
    }

    if (survivors_mode) {
        // Default survivor sweep covers worlds 2..16: every drop-one subset
        // plus seeded multi-death subsets per world.
        if (!world_given) {
            world_lo = 2;
            world_hi = 16;
        }
        return run_survivor_sweep(world_lo, world_hi, seed, verbose);
    }
    if (concurrent_mode) {
        if (!world_given) {
            world_lo = 2;
            world_hi = 16;
        }
        return run_concurrent_sweep(world_lo, world_hi, verbose);
    }

    const gtopk::comm::NetworkModel net =
        gtopk::comm::NetworkModel::one_gbps_ethernet();
    const std::vector<ProtoCase> cases = make_cases();
    bool filter_matched = false;
    std::vector<CaseResult> results;
    int checked = 0, failed = 0, skipped = 0;

    for (const ProtoCase& pc : cases) {
        if (proto_filter != "all" && proto_filter != pc.name) continue;
        filter_matched = true;
        for (int world = std::max(world_lo, pc.min_world); world <= world_hi; ++world) {
            CaseResult r;
            r.case_name = pc.name;
            r.world = world;
            const std::optional<Schedule> sched = pc.make(world);
            if (!sched) {
                r.skipped = true;
                ++skipped;
                results.push_back(std::move(r));
                continue;
            }
            r.proto = sched->proto;
            const VerifyResult v = verify_schedule(*sched, &net);
            r.messages = v.total_messages;
            if (v.bytes_exact) r.bytes = v.total_bytes;
            for (const auto& viol : v.violations) {
                r.failures.push_back("[" + viol.check + "] rank " +
                                     std::to_string(viol.rank) + ": " + viol.detail);
            }

            // Closed-form count checks (paper Table I, count column).
            if (const auto exp =
                    expected_totals(sched->proto, world, pc.elems, pc.elem_bytes)) {
                if (exp->messages != v.total_messages) {
                    r.failures.push_back(
                        "[counts] total messages " + std::to_string(v.total_messages) +
                        " != closed form " + std::to_string(exp->messages));
                }
                if (exp->bytes && v.bytes_exact && *exp->bytes != v.total_bytes) {
                    r.failures.push_back(
                        "[counts] total bytes " + std::to_string(v.total_bytes) +
                        " != closed form " + std::to_string(*exp->bytes));
                }
            } else {
                r.failures.push_back("[counts] no closed form registered for proto " +
                                     sched->proto);
            }

            // Alpha-beta critical path vs cost_model.hpp (time column).
            if (const auto want = pc.expected_time(net, world)) {
                r.expected_time_s = *want;
                if (v.critical_path_s) {
                    r.critical_path_s = *v.critical_path_s;
                    const double diff = std::abs(*v.critical_path_s - *want);
                    const double tol = 1e-12 + 1e-9 * std::abs(*want);
                    if (diff > tol) {
                        r.failures.push_back(
                            "[time] simulated critical path " +
                            std::to_string(*v.critical_path_s) + "s != closed form " +
                            std::to_string(*want) + "s");
                    }
                } else if (!v.violations.empty()) {
                    // Already reported; the time check is moot.
                } else {
                    r.failures.push_back(
                        "[time] closed form exists but schedule bytes are "
                        "not exact — cannot price");
                }
            } else if (v.critical_path_s) {
                r.critical_path_s = *v.critical_path_s;
            }

            r.ok = r.failures.empty();
            ++checked;
            if (!r.ok) ++failed;
            if (verbose || !r.ok) {
                std::printf("%-22s P=%-3d %s\n", pc.name.c_str(), world,
                            r.ok ? "ok" : "FAIL");
                for (const auto& f : r.failures) {
                    std::printf("    %s\n", f.c_str());
                }
            }
            results.push_back(std::move(r));
        }
    }

    if (!filter_matched) {
        std::fprintf(stderr, "commcheck: unknown proto '%s'\n", proto_filter.c_str());
        return 2;
    }

    std::printf("commcheck: %d schedule(s) verified, %d failed, %d skipped "
                "(undefined world sizes)\n",
                checked, failed, skipped);

    if (!report_path.empty()) {
        std::ofstream out(report_path);
        if (!out) {
            std::fprintf(stderr, "commcheck: cannot write %s\n", report_path.c_str());
            return 2;
        }
        out << "{\n  \"checked\": " << checked << ",\n  \"failed\": " << failed
            << ",\n  \"skipped\": " << skipped << ",\n  \"results\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const CaseResult& r = results[i];
            out << "    {\"case\": \"" << json_escape(r.case_name) << "\", "
                << "\"proto\": \"" << json_escape(r.proto) << "\", "
                << "\"world\": " << r.world << ", "
                << "\"skipped\": " << (r.skipped ? "true" : "false") << ", "
                << "\"ok\": " << (r.ok ? "true" : "false") << ", "
                << "\"messages\": " << r.messages << ", "
                << "\"bytes\": " << r.bytes << ", "
                << "\"critical_path_s\": " << r.critical_path_s << ", "
                << "\"expected_time_s\": " << r.expected_time_s << ", "
                << "\"failures\": [";
            for (std::size_t j = 0; j < r.failures.size(); ++j) {
                out << (j ? ", " : "") << '"' << json_escape(r.failures[j]) << '"';
            }
            out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        std::printf("commcheck: report written to %s\n", report_path.c_str());
    }

    return failed == 0 ? 0 : 1;
}
