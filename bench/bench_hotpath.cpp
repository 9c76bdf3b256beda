// Hot-path A/B bench: legacy (owning, allocate-per-call) vs optimized
// (pooled buffers, zero-copy wire views, reused workspaces) host costs of
// one gTop-k iteration, measured in the SAME run so the speedup is
// apples-to-apples on this machine.
//
//   $ ./bench_hotpath [--m N] [--world P] [--rho R] [--iters I]
//                     [--out BENCH_hotpath.json] [--small]
//
// Default config is the paper's largest setting that fits a host run:
// m = 25e6 parameters, P = 32 workers, rho = 0.001 (k = 25 000). --small
// is the CI smoke preset (m = 2^20, P = 8).
//
// Phases (all host wall-clock, virtual-time network is free):
//   select            one-shot topk_select  vs  workspace + histogram cut
//   wire_roundtrip    serialize+deserialize  vs  serialize_into + view
//   merge             topk_merge (allocate-add-reselect)  vs  topk_merge_into
//   e2e_gtopk_iteration   select + gtopk_allreduce on a P-rank cluster:
//                         one-shot select and no workspace vs workspace
//                         select and a reused GtopkWorkspace. There is
//                         one gTop-k collective, so both arms run the same
//                         pooled wire path; the JSON schema is unchanged.
//
// Every optimized phase result is checked bit-identical against its legacy
// counterpart before timings are reported.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/aggregators.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace gtopk;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<float> random_dense(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> v(m);
    // Uniform, not gaussian: filling 32 ranks x 25e6 entries must not
    // dominate the bench's own startup.
    for (auto& x : v) x = rng.next_uniform(-1.0f, 1.0f);
    return v;
}

void require_equal(const sparse::SparseGradient& a, const sparse::SparseGradient& b,
                   const char* what) {
    if (a.dense_size != b.dense_size || a.indices != b.indices ||
        a.values != b.values) {
        throw std::logic_error(std::string("bit-identical check failed: ") + what);
    }
}

struct Phase {
    std::string name;
    double legacy_s = 0;
    double optimized_s = 0;
    double speedup() const { return optimized_s > 0 ? legacy_s / optimized_s : 0; }
};

struct Config {
    std::size_t m = 25'000'000;
    int world = 32;
    double rho = 0.001;
    int iters = 2;
    std::string out = "BENCH_hotpath.json";
    std::size_t k() const {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(rho * static_cast<double>(m))));
    }
};

Phase bench_select(const Config& cfg, const std::vector<float>& dense) {
    Phase p{"select"};
    const std::size_t k = cfg.k();
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    // Warm both paths once (first-touch page faults, workspace growth) and
    // check equivalence on the warmed result.
    const sparse::SparseGradient ref = sparse::topk_select(dense, k);
    sparse::topk_select_into(dense, k, ws, out);
    require_equal(ref, out, "select");
    double t = now_s();
    for (int i = 0; i < cfg.iters; ++i) {
        const sparse::SparseGradient g = sparse::topk_select(dense, k);
        if (g.nnz() != k) throw std::logic_error("select nnz");
    }
    p.legacy_s = (now_s() - t) / cfg.iters;
    t = now_s();
    for (int i = 0; i < cfg.iters; ++i) {
        sparse::topk_select_into(dense, k, ws, out);
    }
    p.optimized_s = (now_s() - t) / cfg.iters;
    return p;
}

Phase bench_wire(const Config& cfg, const sparse::SparseGradient& g) {
    Phase p{"wire_roundtrip"};
    // More reps than the big-m phases: one round trip is microseconds.
    const int reps = cfg.iters * 200;
    std::vector<std::byte> buf;
    sparse::serialize_into(g, buf);
    require_equal(g, sparse::deserialize_view(buf).materialize(), "wire view");
    double t = now_s();
    double sink = 0;
    for (int i = 0; i < reps; ++i) {
        const sparse::SparseGradient back = sparse::deserialize(sparse::serialize(g));
        sink += back.values[0];
    }
    p.legacy_s = (now_s() - t) / reps;
    t = now_s();
    for (int i = 0; i < reps; ++i) {
        sparse::serialize_into(g, buf);
        const sparse::SparseGradientView v = sparse::deserialize_view(buf);
        sink += v.values[0];
    }
    p.optimized_s = (now_s() - t) / reps;
    if (sink == -1.0) std::cout << "";
    return p;
}

Phase bench_merge(const Config& cfg, const sparse::SparseGradient& a,
                  const sparse::SparseGradient& b) {
    Phase p{"merge"};
    const std::size_t k = cfg.k();
    const int reps = cfg.iters * 50;
    sparse::MergeScratch scratch;
    {
        sparse::SparseGradient acc = a;
        sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
        require_equal(sparse::topk_merge(a, b, k), acc, "merge");
    }
    sparse::SparseGradient acc;
    double t = now_s();
    for (int i = 0; i < reps; ++i) {
        acc = a;
        acc = sparse::topk_merge(acc, b, k);
    }
    p.legacy_s = (now_s() - t) / reps;
    t = now_s();
    for (int i = 0; i < reps; ++i) {
        acc = a;
        sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
    }
    p.optimized_s = (now_s() - t) / reps;
    return p;
}

/// One full gTop-k iteration's host cost (select + gTopKAllReduce) on a
/// P-rank in-process cluster, every rank selecting from its own m-sized
/// dense gradient. `optimized` reuses the select and aggregation
/// workspaces across iterations; legacy allocates them per call.
double run_e2e(const Config& cfg, const std::vector<std::vector<float>>& grads,
               bool optimized, std::vector<float>* rank0_out) {
    const std::size_t k = cfg.k();
    const double t = now_s();
    comm::Cluster::run(cfg.world, comm::NetworkModel::free(), [&](comm::Communicator& comm) {
        const auto& dense = grads[static_cast<std::size_t>(comm.rank())];
        sparse::TopkWorkspace select_ws;
        sparse::SparseGradient local;
        core::GtopkWorkspace agg_ws;
        core::GtopkOptions options;
        if (optimized) options.workspace = &agg_ws;
        for (int i = 0; i < cfg.iters; ++i) {
            if (optimized) {
                sparse::topk_select_into(dense, k, select_ws, local);
            } else {
                local = sparse::topk_select(dense, k);
            }
            core::GtopkResult res = core::gtopk_allreduce(comm, local, k, options);
            if (comm.rank() == 0 && i == 0 && rank0_out) *rank0_out = res.global.values;
        }
    });
    return (now_s() - t) / cfg.iters;
}

}  // namespace

int main(int argc, char** argv) {
    using util::TextTable;
    bench::quiet_logs();

    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(std::string(flag) + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--m") {
            cfg.m = static_cast<std::size_t>(std::stoull(next("--m")));
        } else if (arg == "--world") {
            cfg.world = std::stoi(next("--world"));
        } else if (arg == "--rho") {
            cfg.rho = std::stod(next("--rho"));
        } else if (arg == "--iters") {
            cfg.iters = std::stoi(next("--iters"));
        } else if (arg == "--out") {
            cfg.out = next("--out");
        } else if (arg == "--small") {
            cfg.m = 1 << 20;
            cfg.world = 8;
            cfg.iters = 3;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    bench::print_header(
        "Hot-path A/B — legacy (owning) vs optimized (pooled/zero-copy/workspace)",
        "m=" + std::to_string(cfg.m) + " P=" + std::to_string(cfg.world) +
            " rho=" + std::to_string(cfg.rho) + " k=" + std::to_string(cfg.k()) +
            " iters=" + std::to_string(cfg.iters) + ", host wall-clock seconds");

    const auto dense = random_dense(cfg.m, 1);
    const auto a = sparse::topk_select(dense, cfg.k());
    const auto b = sparse::topk_select(random_dense(cfg.m, 2), cfg.k());

    std::vector<Phase> phases;
    phases.push_back(bench_select(cfg, dense));
    phases.push_back(bench_wire(cfg, a));
    phases.push_back(bench_merge(cfg, a, b));

    {
        std::vector<std::vector<float>> grads;
        grads.reserve(static_cast<std::size_t>(cfg.world));
        for (int r = 0; r < cfg.world; ++r) {
            grads.push_back(random_dense(cfg.m, 100 + static_cast<std::uint64_t>(r)));
        }
        Phase e2e{"e2e_gtopk_iteration"};
        std::vector<float> legacy_out, optimized_out;
        e2e.legacy_s = run_e2e(cfg, grads, /*optimized=*/false, &legacy_out);
        e2e.optimized_s = run_e2e(cfg, grads, /*optimized=*/true, &optimized_out);
        if (legacy_out != optimized_out) {
            throw std::logic_error("e2e legacy vs optimized results diverge");
        }
        phases.push_back(e2e);
    }

    TextTable table({"Phase", "legacy [s]", "optimized [s]", "speedup"});
    for (const Phase& p : phases) {
        table.add_row({p.name, TextTable::fmt(p.legacy_s, 6),
                       TextTable::fmt(p.optimized_s, 6),
                       TextTable::fmt(p.speedup(), 2) + "x"});
    }
    table.print(std::cout);

    std::ofstream out(cfg.out);
    if (!out) {
        std::cerr << "cannot open " << cfg.out << "\n";
        return 1;
    }
    out << "{\n  \"bench\": \"hotpath\",\n  \"config\": {\"m\": " << cfg.m
        << ", \"world\": " << cfg.world << ", \"rho\": " << cfg.rho
        << ", \"k\": " << cfg.k() << ", \"iters\": " << cfg.iters << "},\n"
        << "  \"phases\": {\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase& p = phases[i];
        out << "    \"" << p.name << "\": {\"legacy_s\": " << p.legacy_s
            << ", \"optimized_s\": " << p.optimized_s
            << ", \"speedup\": " << p.speedup() << "}"
            << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    std::cout << "\nwritten to " << cfg.out << "\n";

    const double e2e_speedup = phases.back().speedup();
    std::cout << "e2e gTop-k iteration speedup: " << e2e_speedup << "x  "
              << (e2e_speedup >= 2.0 ? "(meets the >=2x acceptance bar)"
                                     : "(below the 2x bar)")
              << "\n";
    return 0;
}
