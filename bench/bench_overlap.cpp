// bench_overlap — closes the loop on the overlapped layer-wise gTop-k
// engine (DESIGN.md §14) at the paper's Fig. 11 operating points.
//
// For VGG-16 (m = 14.7M, rho = 1e-3) on the measured 1 GbE alpha-beta
// network and P in {8, 16, 32}, it runs the REAL runtime — bucketed
// AsyncGtopkAllreduce handles over the virtual-time cluster, issued at the
// bucketer's ready times — twice per point:
//
//   baseline   modeled forward + full backward, then the per-bucket gTop-k
//              collectives serialized (the overlap=false trainer path);
//   overlap    each bucket's handle issued the moment its gradient is ready
//              (backward order), drained front-bucket-first.
//
// and reports, in VIRTUAL seconds:
//   * measured end-to-end iteration time and speedup (baseline / overlap),
//   * the measured hidden fraction 1 - exposed/total comm,
//   * the perfmodel::overlapped_iteration prediction of both, plus the
//     relative deviation |measured - predicted| / predicted.
//
// Both runs aggregate identical gradients; the bench asserts the overlap
// results are BIT-IDENTICAL to the serialized ones before timing counts.
//
// Acceptance gates (exit 1 on failure):
//   * at the best operating point the measured speedup is >= 1.2x where the
//     model predicts hideable communication,
//   * every point's measured hidden fraction is within 15% of prediction.
//
// Usage: bench_overlap [--out BENCH_overlap.json]
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "core/aggregators.hpp"
#include "core/async_gtopk.hpp"
#include "perfmodel/model_profile.hpp"
#include "perfmodel/overlap_model.hpp"
#include "sparse/sparse_gradient.hpp"
#include "train/bucketer.hpp"
#include "util/table.hpp"

namespace {

using namespace gtopk;

// VGG-16 (Cifar-10) weight tensors in forward order, elements. Sums to
// ~14.7M — the paper's Table III "m" for this model.
const std::vector<std::size_t> kVgg16Layers = {
    1'728,     36'864,    73'728,    147'456,   294'912,
    589'824,   589'824,   1'179'648, 2'359'296, 2'359'296,
    2'359'296, 2'359'296, 2'359'296, 262'144,   5'120,
};

constexpr double kRho = 1e-3;
constexpr std::int64_t kBucketBytes = 2 << 20;  // 2 MiB fusion threshold

struct PointResult {
    int workers = 0;
    int buckets = 0;
    double baseline_iter_s = 0.0;   // measured, virtual
    double overlap_iter_s = 0.0;    // measured, virtual
    double measured_hidden = 0.0;
    double predicted_iter_s = 0.0;
    double predicted_hidden = 0.0;
    double measured_speedup() const {
        return overlap_iter_s > 0 ? baseline_iter_s / overlap_iter_s : 0.0;
    }
    double hidden_deviation() const {
        return predicted_hidden > 0
                   ? std::abs(measured_hidden - predicted_hidden) / predicted_hidden
                   : std::abs(measured_hidden);
    }
};

std::size_t k_of(std::size_t elems) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(kRho * static_cast<double>(elems))));
}

/// Deterministic synthetic per-bucket sparse gradient for (rank, bucket):
/// k strided strictly-increasing indices (stride >> world keeps them
/// strictly increasing after the +rank stagger) with rank-dependent values.
sparse::SparseGradient make_local(int rank, int bucket, std::size_t elems) {
    const std::size_t k = k_of(elems);
    sparse::SparseGradient g;
    g.dense_size = static_cast<std::int64_t>(elems);
    g.indices.reserve(k);
    g.values.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t idx = (i * elems) / k + static_cast<std::size_t>(rank);
        if (idx >= elems) idx = elems - 1 - (k - 1 - i);
        g.indices.push_back(static_cast<std::int32_t>(idx));
        g.values.push_back(1.0f +
                           0.25f * static_cast<float>((rank * 7 + bucket * 3 + static_cast<int>(i)) % 11) *
                               ((i % 2) ? -1.0f : 1.0f));
    }
    return g;
}

PointResult run_point(int workers, const perfmodel::ModelProfile& profile) {
    const comm::NetworkModel net = comm::NetworkModel::one_gbps_ethernet();
    const double t_f = profile.t_compute_s / 3.0;
    const double t_b = profile.t_compute_s - t_f;

    // Bucketize exactly as the trainer does.
    std::vector<std::size_t> seg_offsets(1, 0);
    for (std::size_t n : kVgg16Layers) seg_offsets.push_back(seg_offsets.back() + n);
    const std::size_t m = seg_offsets.back();
    const std::vector<train::GradBucket> buckets =
        train::fuse_buckets(seg_offsets, kBucketBytes);
    const std::vector<double> ready =
        train::bucket_ready_fractions(buckets, m);
    const std::size_t nb = buckets.size();

    PointResult r;
    r.workers = workers;
    r.buckets = static_cast<int>(nb);

    // Per-rank local contributions, identical across both runs.
    auto locals_for = [&](int rank) {
        std::vector<sparse::SparseGradient> locals;
        locals.reserve(nb);
        for (std::size_t b = 0; b < nb; ++b) {
            locals.push_back(make_local(rank, static_cast<int>(b), buckets[b].size()));
        }
        return locals;
    };

    std::vector<double> base_iter(static_cast<std::size_t>(workers), 0.0);
    std::vector<std::vector<sparse::SparseGradient>> base_globals(
        static_cast<std::size_t>(workers));
    comm::Cluster::run(workers, net, [&](comm::Communicator& comm) {
        const auto locals = locals_for(comm.rank());
        core::GtopkWorkspace ws;
        core::GtopkOptions opts;
        opts.workspace = &ws;
        const double it0 = comm.clock().now_s();
        comm.clock().advance(t_f + t_b);  // full compute before any comm
        for (std::size_t b = 0; b < nb; ++b) {
            base_globals[static_cast<std::size_t>(comm.rank())].push_back(
                core::gtopk_allreduce(comm, locals[b], locals[b].nnz(), opts).global);
        }
        base_iter[static_cast<std::size_t>(comm.rank())] = comm.clock().now_s() - it0;
    });

    std::vector<double> over_iter(static_cast<std::size_t>(workers), 0.0);
    std::vector<std::vector<sparse::SparseGradient>> over_globals(
        static_cast<std::size_t>(workers));
    comm::Cluster::run(workers, net, [&](comm::Communicator& comm) {
        const auto locals = locals_for(comm.rank());
        core::GtopkWorkspace ws;
        const double it0 = comm.clock().now_s();
        comm.clock().advance(t_f);
        const double bw0 = comm.clock().now_s();
        std::vector<std::unique_ptr<core::AsyncGtopkAllreduce>> handles(nb);
        for (std::size_t b = nb; b-- > 0;) {  // backward (gradient-ready) order
            comm.clock().advance_to(bw0 + ready[b] * t_b);
            handles[b] = std::make_unique<core::AsyncGtopkAllreduce>(
                comm, locals[b], locals[b].nnz(), &ws);
            handles[b]->set_priority(buckets[b].priority);
            handles[b]->start();
        }
        comm.clock().advance_to(bw0 + t_b);
        for (std::size_t b = 0; b < nb; ++b) {  // front-bucket-first drain
            handles[b]->wait();
            over_globals[static_cast<std::size_t>(comm.rank())].push_back(
                handles[b]->result());
        }
        over_iter[static_cast<std::size_t>(comm.rank())] = comm.clock().now_s() - it0;
    });

    // Scheduling must not change math: overlapped aggregation bit-identical
    // to the serialized one, on every rank.
    for (int rank = 0; rank < workers; ++rank) {
        for (std::size_t b = 0; b < nb; ++b) {
            const auto& x = base_globals[static_cast<std::size_t>(rank)][b];
            const auto& y = over_globals[static_cast<std::size_t>(rank)][b];
            if (x.indices != y.indices || x.values != y.values) {
                throw std::logic_error(
                    "overlap aggregation diverged from serialized baseline at "
                    "rank " + std::to_string(rank) + " bucket " + std::to_string(b));
            }
        }
    }

    // Iteration ends when the SLOWEST rank finishes (the next forward pass
    // needs every replica updated).
    for (double v : base_iter) r.baseline_iter_s = std::max(r.baseline_iter_s, v);
    for (double v : over_iter) r.overlap_iter_s = std::max(r.overlap_iter_s, v);

    const double total_comm = r.baseline_iter_s - (t_f + t_b);
    const double exposed = r.overlap_iter_s - (t_f + t_b);
    r.measured_hidden = total_comm > 0 ? 1.0 - exposed / total_comm : 1.0;

    // Prediction over the SAME bucket sizes (forward order), single channel
    // — the virtual-time transport serializes each rank's sends.
    std::vector<std::int64_t> bucket_sizes;
    for (const train::GradBucket& b : buckets) {
        bucket_sizes.push_back(static_cast<std::int64_t>(b.size()));
    }
    const perfmodel::OverlapResult pred = perfmodel::overlapped_iteration(
        net, workers, bucket_sizes, kRho, t_f, t_b, /*channels=*/1);
    r.predicted_iter_s = pred.iteration_s;
    r.predicted_hidden = pred.hidden_fraction;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_overlap [--out FILE.json]\n";
            return 2;
        }
    }

    gtopk::bench::quiet_logs();
    gtopk::bench::print_header(
        "bench_overlap — layer-wise gTop-k communication/computation overlap",
        "VGG-16, rho=1e-3, 1GbE alpha-beta network, virtual-time runtime vs "
        "perfmodel::overlapped_iteration");

    const gtopk::perfmodel::ModelProfile profile = gtopk::perfmodel::vgg16_profile();
    std::vector<PointResult> points;
    for (int workers : {8, 16, 32}) {
        points.push_back(run_point(workers, profile));
    }

    gtopk::util::TextTable table({"P", "buckets", "base iter [s]", "ovl iter [s]",
                                  "speedup", "hidden meas", "hidden pred",
                                  "deviation"});
    for (const PointResult& p : points) {
        table.add_row({std::to_string(p.workers), std::to_string(p.buckets),
                       gtopk::util::TextTable::fmt(p.baseline_iter_s, 4),
                       gtopk::util::TextTable::fmt(p.overlap_iter_s, 4),
                       gtopk::util::TextTable::fmt(p.measured_speedup(), 2) + "x",
                       gtopk::util::TextTable::fmt(p.measured_hidden, 3),
                       gtopk::util::TextTable::fmt(p.predicted_hidden, 3),
                       gtopk::util::TextTable::fmt(p.hidden_deviation() * 100, 1) + "%"});
    }
    table.print(std::cout);

    bool ok = true;
    double best_speedup = 0.0;
    for (const PointResult& p : points) {
        best_speedup = std::max(best_speedup, p.measured_speedup());
        if (p.hidden_deviation() > 0.15) {
            ok = false;
            std::cout << "FAIL: P=" << p.workers
                      << " measured hidden fraction deviates "
                      << p.hidden_deviation() * 100 << "% from prediction (>15%)\n";
        }
    }
    std::cout << "best measured overlap speedup: " << best_speedup << "x  "
              << (best_speedup >= 1.2 ? "(meets the >=1.2x acceptance bar)"
                                      : "(below the 1.2x bar)")
              << "\n";
    if (best_speedup < 1.2) ok = false;

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "cannot open " << out_path << "\n";
            return 1;
        }
        // Same report shape as BENCH_hotpath.json so `gtopktop
        // bench-compare` can diff overlap iteration times across commits.
        out << "{\n  \"bench\": \"overlap\",\n  \"config\": {\"model\": \"VGG-16\", "
            << "\"m\": " << 14'727'488 << ", \"rho\": " << kRho
            << ", \"bucket_bytes\": " << kBucketBytes << "},\n  \"phases\": {\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointResult& p = points[i];
            out << "    \"overlap_iter_P" << p.workers
                << "\": {\"legacy_s\": " << p.baseline_iter_s
                << ", \"optimized_s\": " << p.overlap_iter_s
                << ", \"speedup\": " << p.measured_speedup()
                << ", \"hidden_measured\": " << p.measured_hidden
                << ", \"hidden_predicted\": " << p.predicted_hidden << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  }\n}\n";
        std::cout << "written to " << out_path << "\n";
    }
    return ok ? 0 : 1;
}
