// protocheck — exhaustive protocol model checker for the control plane.
//
// Explores every reachable state of small-world instances of the ARQ
// (ReliableTransport), membership/epoch (MembershipService) and
// reconnect/session-resume (TcpTransport link recovery) protocols under an
// adversarial network, checking safety invariants on every state and
// liveness under fairness over the full graph. The models execute the SAME
// fsm::* transition functions the production code executes
// (src/comm/reliable_fsm.*, src/comm/membership_fsm.*,
// src/comm/reconnect_fsm.*), so a clean sweep certifies the code paths
// themselves, not a parallel reimplementation — and --seed-break flips a
// deliberate protocol bug that must surface as a counterexample AND (for
// arq/membership) reproduce through the real stack (--replay).
//
// Usage:
//   protocheck --proto arq|epoch|membership|reconnect|all [--world 2..4]
//              [--max-msgs N] [--dup-budget N] [--corrupt-budget N]
//              [--kills N] [--joins N] [--losses N] [--attempts N]
//              [--max-states N]
//              [--seed-break none|quorum|gc-unacked|accept-dup|accept-stale]
//              [--replay] [--replay-sample N] [--seed S]
//              [--report out.json] [-v]
//
// Exit code 0:
//   * without --seed-break: every requested sweep finished exhaustively
//     with zero violations (and --replay/--replay-sample agreed);
//   * with --seed-break: the sweep DID find a counterexample for the
//     seeded bug, every violation found is the one that bug must surface
//     as, and (with --replay) the trace reproduced the failure through the
//     real transport/service.
// Exit code 3: a sweep hit --max-states before finishing.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/protocheck/arq_model.hpp"
#include "analysis/protocheck/explorer.hpp"
#include "analysis/protocheck/membership_model.hpp"
#include "analysis/protocheck/reconnect_model.hpp"
#include "analysis/protocheck/replay.hpp"
#include "comm/membership_fsm.hpp"
#include "comm/reconnect_fsm.hpp"
#include "comm/reliable_fsm.hpp"

namespace pc = gtopk::analysis::protocheck;
namespace fsm = gtopk::comm::fsm;

namespace {

struct Options {
    std::string proto = "all";
    int world_lo = 2;
    int world_hi = 4;
    int max_msgs = 3;
    int dup_budget = 1;
    int corrupt_budget = 1;
    int kills = 1;
    int joins = 2;
    int losses = 1;
    int attempts = 3;
    std::uint64_t max_states = 2'000'000;
    std::string seed_break = "none";
    bool replay = false;
    int replay_sample = 0;
    std::uint64_t seed = 1;
    std::string report_path;
    bool verbose = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
    std::cerr << "protocheck: " << msg << "\n";
    std::exit(2);
}

bool parse_world_range(const std::string& s, int& lo, int& hi) {
    const auto dots = s.find("..");
    try {
        if (dots == std::string::npos) {
            lo = hi = std::stoi(s);
        } else {
            lo = std::stoi(s.substr(0, dots));
            hi = std::stoi(s.substr(dots + 2));
        }
    } catch (...) {
        return false;
    }
    return lo >= 2 && hi >= lo && hi <= 4;
}

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> std::string {
            if (i + 1 >= argc) usage_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--proto") {
            o.proto = need_value();
            if (o.proto != "arq" && o.proto != "epoch" &&
                o.proto != "membership" && o.proto != "reconnect" &&
                o.proto != "all") {
                usage_error("unknown --proto " + o.proto);
            }
        } else if (arg == "--world") {
            if (!parse_world_range(need_value(), o.world_lo, o.world_hi)) {
                usage_error("--world wants N or N..M within 2..4");
            }
        } else if (arg == "--max-msgs") {
            o.max_msgs = std::stoi(need_value());
        } else if (arg == "--dup-budget") {
            o.dup_budget = std::stoi(need_value());
        } else if (arg == "--corrupt-budget") {
            o.corrupt_budget = std::stoi(need_value());
        } else if (arg == "--kills") {
            o.kills = std::stoi(need_value());
        } else if (arg == "--joins") {
            o.joins = std::stoi(need_value());
        } else if (arg == "--losses") {
            o.losses = std::stoi(need_value());
        } else if (arg == "--attempts") {
            o.attempts = std::stoi(need_value());
        } else if (arg == "--max-states") {
            o.max_states = std::stoull(need_value());
        } else if (arg == "--seed-break") {
            o.seed_break = need_value();
            if (o.seed_break != "none" && o.seed_break != "quorum" &&
                o.seed_break != "gc-unacked" && o.seed_break != "accept-dup" &&
                o.seed_break != "accept-stale") {
                usage_error("unknown --seed-break " + o.seed_break);
            }
        } else if (arg == "--replay") {
            o.replay = true;
        } else if (arg == "--replay-sample") {
            o.replay_sample = std::stoi(need_value());
        } else if (arg == "--seed") {
            o.seed = std::stoull(need_value());
        } else if (arg == "--report") {
            o.report_path = need_value();
        } else if (arg == "-v" || arg == "--verbose") {
            o.verbose = true;
        } else {
            usage_error("unknown argument " + arg);
        }
    }
    return o;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
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

/// One sweep's outcome, protocol-agnostic, for the JSON report.
struct SweepResult {
    std::string name;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t max_depth = 0;
    bool truncated = false;
    std::string violation;           // empty = clean
    std::vector<std::string> trace;  // counterexample labels
    std::string replay;              // "ok", "reproduced", divergence text
};

template <typename Model>
SweepResult run_sweep(const std::string& name, const Model& model,
                      std::uint64_t max_states,
                      std::vector<typename Model::Action>* trace_out) {
    pc::ExploreLimits limits;
    limits.max_states = max_states;
    const pc::CheckReport<Model> report = pc::explore(model, limits);
    SweepResult r;
    r.name = name;
    r.states = report.states;
    r.transitions = report.transitions;
    r.max_depth = report.max_depth;
    r.truncated = report.truncated;
    if (report.violation) r.violation = *report.violation;
    for (const auto& step : report.trace) {
        r.trace.push_back(step.label);
        if (trace_out) trace_out->push_back(step.action);
    }
    return r;
}

void print_result(const SweepResult& r, bool verbose) {
    std::cout << r.name << ": " << r.states << " states, " << r.transitions
              << " transitions, depth " << r.max_depth;
    if (r.truncated) std::cout << " [TRUNCATED at state cap]";
    if (r.violation.empty()) {
        std::cout << " — clean\n";
    } else {
        std::cout << " — VIOLATION: " << r.violation << "\n";
        std::cout << "  counterexample (" << r.trace.size() << " steps):\n";
        for (const auto& label : r.trace) std::cout << "    " << label << "\n";
    }
    if (!r.replay.empty()) std::cout << "  replay: " << r.replay << "\n";
    if (verbose && r.violation.empty()) {
        std::cout << "  (liveness: every reachable state has a fair path to "
                     "a goal state)\n";
    }
}

void write_report(const std::string& path,
                  const std::vector<SweepResult>& results) {
    std::ostringstream os;
    os << "{\n  \"sweeps\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepResult& r = results[i];
        os << "    {\"name\": \"" << json_escape(r.name) << "\", \"states\": "
           << r.states << ", \"transitions\": " << r.transitions
           << ", \"max_depth\": " << r.max_depth << ", \"truncated\": "
           << (r.truncated ? "true" : "false") << ", \"violation\": \""
           << json_escape(r.violation) << "\", \"replay\": \""
           << json_escape(r.replay) << "\", \"trace\": [";
        for (std::size_t t = 0; t < r.trace.size(); ++t) {
            if (t) os << ", ";
            os << "\"" << json_escape(r.trace[t]) << "\"";
        }
        os << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::ofstream f(path);
    f << os.str();
}

}  // namespace

int main(int argc, char** argv) {
    const Options o = parse_args(argc, argv);

    // The violation each seeded break must surface as.
    std::string expected_violation;
    if (o.seed_break == "quorum") {
        fsm::set_membership_break(fsm::MembershipBreak::kQuorumBypass);
        expected_violation = "quorum-violation";
    } else if (o.seed_break == "gc-unacked") {
        fsm::set_arq_break(fsm::ArqBreak::kGcDropsUnacked);
        expected_violation = "gc-dropped-unacked";
    } else if (o.seed_break == "accept-dup") {
        fsm::set_arq_break(fsm::ArqBreak::kAcceptDuplicates);
        expected_violation = "out-of-order-delivery";
    } else if (o.seed_break == "accept-stale") {
        fsm::set_reconnect_break(fsm::ReconnectBreak::kAcceptStale);
        expected_violation = "stale-session-accepted";
    }
    const bool expect_violation = o.seed_break != "none";

    std::vector<SweepResult> results;
    bool found_violation = false;
    bool replay_ok = true;
    bool truncated = false;

    const bool run_arq = o.proto == "arq" || o.proto == "all";
    const bool run_epoch = o.proto == "epoch" || o.proto == "all";
    const bool run_membership = o.proto == "membership" || o.proto == "all";
    const bool run_reconnect = o.proto == "reconnect" || o.proto == "all";

    std::vector<int> bump_variants;  // 0 = plain arq, 1 = epoch-bump sweep
    if (run_arq) bump_variants.push_back(0);
    if (run_epoch) bump_variants.push_back(1);
    for (const int bumps : bump_variants) {
        pc::ArqModelConfig cfg;
        cfg.max_msgs = o.max_msgs;
        cfg.dup_budget = o.dup_budget;
        cfg.corrupt_budget = o.corrupt_budget;
        cfg.allow_drop = true;
        cfg.allow_kill = true;
        cfg.max_epoch_bumps = bumps;
        const pc::ArqModel model(cfg);
        std::vector<pc::ArqModel::Action> trace;
        const std::string name = std::string(bumps > 0 ? "epoch" : "arq") +
                                 "(msgs=" + std::to_string(cfg.max_msgs) +
                                 ",dup=" + std::to_string(cfg.dup_budget) +
                                 ",corrupt=" + std::to_string(cfg.corrupt_budget) +
                                 ",bumps=" + std::to_string(cfg.max_epoch_bumps) +
                                 ")";
        SweepResult r = run_sweep(name, model, o.max_states, &trace);
        found_violation |= !r.violation.empty();
        truncated |= r.truncated;
        if (!r.violation.empty() && o.replay) {
            // The counterexample must reproduce through the REAL transport:
            // the model predicts the anomaly, the replay must exhibit it.
            const pc::ArqModelOutcome sim = pc::simulate_arq_trace(cfg, trace);
            const pc::ArqReplayResult real = pc::replay_arq_trace(cfg, trace);
            bool reproduced = false;
            if (r.violation == "out-of-order-delivery") {
                // Real anomaly: the app saw a non-increasing seq.
                for (std::size_t i = 1; i < real.delivered.size(); ++i) {
                    reproduced |= real.delivered[i] <= real.delivered[i - 1];
                }
            } else if (r.violation == "gc-dropped-unacked") {
                // Real anomaly: a sent seq is unrecoverable — fewer
                // deliveries than the unbroken protocol guarantees.
                reproduced = real.delivered.size() < sim.predicted.delivered.size() ||
                             real.retransmits < sim.predicted.retransmits;
                // Conservative fallback: the trace ends mid-protocol; the
                // direct signature is agreement with the broken model.
                reproduced |= real.delivered == sim.predicted.delivered;
            }
            r.replay = reproduced ? "reproduced through ReliableTransport"
                                  : "FAILED to reproduce";
            replay_ok &= reproduced;
        } else if (r.violation.empty() && o.replay_sample > 0) {
            pc::ArqModelConfig clean = cfg;
            if (auto d = pc::arq_random_conformance(clean, o.replay_sample, 40,
                                                    o.seed)) {
                r.replay = "conformance divergence: " + *d;
                replay_ok = false;
            } else {
                r.replay = std::to_string(o.replay_sample) +
                           " random traces conform";
            }
        }
        print_result(r, o.verbose);
        results.push_back(std::move(r));
    }

    if (run_membership) {
        for (int world = o.world_lo; world <= o.world_hi; ++world) {
            pc::MembershipModelConfig cfg;
            cfg.world = world;
            cfg.max_kills = std::min(o.kills, world - 1);
            cfg.joins_per_rank = o.joins;
            const pc::MembershipModel model(cfg);
            std::vector<pc::MembershipModel::Action> trace;
            const std::string name =
                "membership(world=" + std::to_string(world) +
                ",kills=" + std::to_string(cfg.max_kills) +
                ",joins=" + std::to_string(cfg.joins_per_rank) + ")";
            SweepResult r = run_sweep(name, model, o.max_states, &trace);
            found_violation |= !r.violation.empty();
            truncated |= r.truncated;
            if (!r.violation.empty() && o.replay) {
                // A quorum counterexample must reproduce as a REAL minority
                // view finalized by MembershipService (same seeded break).
                if (auto d = pc::membership_conformance_diff(cfg, trace)) {
                    r.replay = "FAILED to reproduce: " + *d;
                    replay_ok = false;
                } else {
                    r.replay = "reproduced through MembershipService";
                }
            }
            const bool violated = !r.violation.empty();
            print_result(r, o.verbose);
            results.push_back(std::move(r));
            if (violated) break;  // one counterexample suffices
        }
    }

    if (run_reconnect) {
        // losses = 0 is the first connection alone: every link starts
        // never-connected and opens through the same handshake.
        for (int losses = 0; losses <= o.losses; ++losses) {
            pc::ReconnectModelConfig cfg;
            cfg.max_losses = losses;
            cfg.max_attempts = static_cast<std::uint64_t>(o.attempts);
            const pc::ReconnectModel model(cfg);
            const std::string name =
                "reconnect(losses=" + std::to_string(losses) +
                ",attempts=" + std::to_string(o.attempts) + ")";
            SweepResult r = run_sweep<pc::ReconnectModel>(name, model,
                                                          o.max_states, nullptr);
            const bool violated = !r.violation.empty();
            found_violation |= violated;
            truncated |= r.truncated;
            print_result(r, o.verbose);
            results.push_back(std::move(r));
            if (violated) break;  // one counterexample suffices
        }
    }

    if (!o.report_path.empty()) write_report(o.report_path, results);

    fsm::set_arq_break(fsm::ArqBreak::kNone);
    fsm::set_membership_break(fsm::MembershipBreak::kNone);
    fsm::set_reconnect_break(fsm::ReconnectBreak::kNone);

    if (truncated) {
        std::cerr << "protocheck: sweep truncated — raise --max-states\n";
        return 3;
    }
    if (expect_violation) {
        if (!found_violation) {
            std::cerr << "protocheck: seeded break produced NO counterexample\n";
            return 1;
        }
        for (const SweepResult& r : results) {
            if (!r.violation.empty() && r.violation != expected_violation) {
                std::cerr << "protocheck: seeded break produced '" << r.violation
                          << "', expected '" << expected_violation << "'\n";
                return 1;
            }
        }
        if (o.replay && !replay_ok) {
            std::cerr << "protocheck: counterexample did not reproduce\n";
            return 1;
        }
        return 0;
    }
    if (found_violation || !replay_ok) return 1;
    return 0;
}
