// Quickstart: train a small classifier with gTop-k S-SGD on a simulated
// 4-worker 1GbE cluster, in ~30 lines of user code.
//
//   $ ./quickstart [--trace-out trace.json] [--telemetry-out t.jsonl]
//                  [--chaos] [--overlap]
//
// Walks through the whole public API surface: dataset, sharded sampler,
// model factory, TrainConfig, train_distributed, and the returned metrics.
// With --trace-out, every rank's per-phase spans (compute, selection, each
// gTop-k merge round, broadcast, send_async/recv_async) are exported as
// Chrome-trace JSON — open it at https://ui.perfetto.dev to see where
// virtual time goes.
//
// With --telemetry-out, the cluster telemetry plane streams one JSON line
// per iteration (every rank's phase timings, wire bytes, nnz) and prints
// the measured-vs-predicted cost attribution at the end; explore the
// stream with tools/gtopktop. In chaos mode a flight-recorder bundle
// (<telemetry-out>.flight.json) captures the failure forensics.
//
// With --overlap, training switches to layer-wise gTop-k with the async
// collective engine (DESIGN.md §14): gradients are fused into buckets and
// each bucket's aggregation is issued the moment backward has produced it,
// so the modeled communication hides under the modeled backward compute.
// Combine with --trace-out to see the per-bucket gtopk.allreduce.async
// spans and the NIC-timeline send_async spans overlapping in Perfetto.
//
// With --chaos, the run exercises the self-healing runtime (DESIGN.md §12):
// the fault plan kills rank 3 partway through the second epoch, the
// survivors detect the stall via their receive deadlines, regroup into a
// new membership epoch, roll back to the newest common in-memory
// checkpoint, and finish the training converged on 3 workers.
//
// With --transport tcp, the same 4-worker world runs as 4 OS processes
// over real sockets (DESIGN.md §15). Launch it under the launcher:
//
//   $ gtopkrun -n 4 -- ./quickstart --transport tcp
//
// Each process drives one rank over a comm::TcpTransport; rank 0 prints
// the results (and owns the telemetry JSONL / trace files). The training
// math is bit-identical to the in-process run — only the wire changes.
//
// --chaos composes with --transport tcp: rank 3's PROCESS dies mid-run,
// its sockets collapse, the survivors' reconnect FSM declares the links
// dead, the membership plane regroups over the sockets (the same
// leader-driven JOIN/VIEW frames as in-process, DESIGN.md §12/§17), and
// the three survivor processes roll back and finish converged. The victim
// exits with the typed rank-killed code (43), so launch it as
//
//   $ gtopkrun -n 4 --allow-exit 43 -- ./quickstart --transport tcp --chaos
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "comm/comm_error.hpp"
#include "comm/fault_transport.hpp"
#include "comm/membership.hpp"
#include "comm/reliable_transport.hpp"
#include "comm/tcp_transport.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/straggler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
    using namespace gtopk;
    util::set_log_level(util::LogLevel::Warn);

    std::string trace_out;
    std::string telemetry_out;
    std::string transport_name = "inproc";
    bool trace_requested = false;
    bool telemetry_requested = false;
    bool chaos = false;
    bool overlap = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
            trace_out = argv[++i];
            trace_requested = true;
        } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
            trace_out = argv[i] + 12;
            trace_requested = true;
        } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
            telemetry_out = argv[++i];
            telemetry_requested = true;
        } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
            telemetry_out = argv[i] + 16;
            telemetry_requested = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(argv[i], "--overlap") == 0) {
            overlap = true;
        } else if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
            transport_name = argv[++i];
        } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
            transport_name = argv[i] + 12;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--trace-out <file.json>]"
                         " [--telemetry-out <file.jsonl>] [--chaos]"
                         " [--overlap] [--transport inproc|tcp]\n";
            return 2;
        }
    }
    if (transport_name != "inproc" && transport_name != "tcp") {
        std::cerr << "error: --transport must be 'inproc' or 'tcp'\n";
        return 2;
    }
    const bool tcp = transport_name == "tcp";
    if (trace_requested && trace_out.empty()) {
        std::cerr << "error: --trace-out requires a non-empty path\n";
        return 2;
    }
    if (telemetry_requested && telemetry_out.empty()) {
        std::cerr << "error: --telemetry-out requires a non-empty path\n";
        return 2;
    }

    const int workers = 4;

    // 0. Transport. In TCP mode this process hosts exactly ONE rank of the
    // 4-worker world (gtopkrun exports the rendezvous contract through the
    // environment); the rank-0 process prints and owns the output files.
    std::unique_ptr<comm::TcpTransport> tcp_transport;
    int local_rank = -1;
    if (tcp) {
        const auto env = comm::TcpTransport::config_from_env();
        if (!env) {
            std::cerr << "error: --transport tcp requires GTOPK_RANK / "
                         "GTOPK_WORLD_SIZE / GTOPK_RENDEZVOUS; launch via:\n"
                         "  gtopkrun -n 4 -- "
                      << argv[0] << " --transport tcp\n";
            return 2;
        }
        if (env->world_size != workers) {
            std::cerr << "error: quickstart is a " << workers
                      << "-worker example; launch with gtopkrun -n " << workers
                      << "\n";
            return 2;
        }
        tcp_transport = std::make_unique<comm::TcpTransport>(*env);
        local_rank = env->rank;
        // Non-lead ranks write no files: a shared path would clobber. The
        // telemetry exchange itself stays on for every rank below — it is
        // a collective, so either all ranks run it or none do.
        if (local_rank != 0) trace_out.clear();
    }
    const bool lead_process = !tcp || local_rank == 0;

    // 1. A deterministic synthetic dataset, sharded across the workers.
    data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 8;
    data::SyntheticImageDataset dataset(dcfg, /*seed=*/1);
    data::ShardedSampler sampler(8192, 1024, workers, /*seed=*/2);

    // 2. A model config; the factory builds one identical replica per rank.
    nn::MlpConfig mcfg;
    mcfg.input_dim = dataset.feature_dim();
    mcfg.hidden_dims = {64, 32};

    // 3. gTop-k S-SGD (Algorithm 4 of the paper) with the warmup schedule.
    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 6;
    config.iters_per_epoch = 30;
    config.lr = 0.05f;
    config.density = 0.01;                        // rho
    config.warmup_densities = {0.25, 0.0725};     // first epochs
    if (tcp) {
        config.transport = tcp_transport.get();
        config.local_rank = local_rank;
        // Real sockets still arm a host-clock receive deadline so a dead
        // peer surfaces as a typed CommError instead of a hang.
        config.recv_timeout_s = 30.0;
    }

    // 3a. Optional overlapped training: layer-wise gTop-k with tensor
    // fusion, one async collective per bucket issued in gradient-ready
    // order and drained front-bucket-first. Pure scheduling — the final
    // parameters are bit-identical to the same run with overlap off.
    if (overlap) {
        config.algorithm = train::Algorithm::LayerwiseGtopkSsgd;
        config.overlap = true;
        config.bucket_bytes = 4096;        // fuse tiny tensors (MG-WFBP)
        config.overlap_backward_s = 5e-3;  // modeled backward time to hide under
        if (lead_process) {
            std::cout << "overlap mode: layer-wise gTop-k, async per-bucket "
                         "aggregation\n\n";
        }
    }

    // 3b. Optional observability: a tracer records per-rank phase spans.
    std::unique_ptr<obs::Tracer> tracer;
    if (!trace_out.empty()) {
        tracer = std::make_unique<obs::Tracer>(workers);
        config.tracer = tracer.get();
    }

    // 3b'. Optional telemetry plane: the global per-iteration stats
    // allgather plus its three consumers — cost attribution against the
    // α-β model, straggler detection, and (chaos runs) the postmortem
    // flight recorder.
    const comm::NetworkModel net = comm::NetworkModel::one_gbps_ethernet();
    std::unique_ptr<obs::Telemetry> telemetry;
    std::unique_ptr<obs::CostAttribution> attribution;
    std::unique_ptr<obs::StragglerDetector> straggler;
    std::unique_ptr<obs::FlightRecorder> recorder;
    if (!telemetry_out.empty()) {
        obs::Telemetry::Config tcfg;
        // Only the lead process opens the JSONL sink (the stats allgather
        // gives it every rank's numbers; a shared path would clobber).
        if (lead_process) tcfg.jsonl_path = telemetry_out;
        telemetry = std::make_unique<obs::Telemetry>(workers, tcfg);
        attribution = std::make_unique<obs::CostAttribution>(
            net, tracer ? &tracer->metrics() : nullptr);
        telemetry->set_attribution(attribution.get());
        straggler = std::make_unique<obs::StragglerDetector>(
            workers, obs::StragglerConfig{},
            tracer ? &tracer->metrics() : nullptr);
        telemetry->set_straggler(straggler.get());
        if (chaos) {
            obs::FlightRecorderConfig fcfg;
            fcfg.path = telemetry_out + ".flight.json";
            recorder = std::make_unique<obs::FlightRecorder>(fcfg);
            telemetry->set_flight_recorder(recorder.get());
        }
        config.telemetry = telemetry.get();
    }

    // 3c. Optional chaos: kill rank 3 mid-epoch and let the self-healing
    // runtime (receive deadlines + membership regroup + checkpoint
    // rollback) finish the run on the 3 survivors. In-process
    // this is a FaultPlan kill; over TCP the same plan lands in the
    // victim's own process, whose death then plays out through real
    // sockets — reconnect FSM, wire regroup and all.
    std::unique_ptr<comm::Transport> chaos_stack;
    std::unique_ptr<comm::MembershipService> membership;
    if (chaos) {
        comm::FaultPlan plan;
        plan.seed = 1;
        plan.kill_at_step(/*rank=*/3, /*step=*/45);  // mid second epoch
        if (tcp) {
            // Decorate this process's socket transport: fault layer lands
            // the kill at the exact step boundary, reliable layer runs the
            // wire ARQ over it.
            chaos_stack = std::make_unique<comm::FaultInjectingTransport>(
                std::move(tcp_transport), plan);
            chaos_stack =
                std::make_unique<comm::ReliableTransport>(std::move(chaos_stack));
        } else {
            chaos_stack =
                std::make_unique<comm::FaultInjectingTransport>(workers, plan);
        }
        membership = std::make_unique<comm::MembershipService>(*chaos_stack);
        config.transport = chaos_stack.get();
        config.membership = membership.get();
        config.recv_timeout_s = tcp ? 1.0 : 0.5;  // the stall detector
        config.checkpoint_every = 10;             // in-memory rollback cadence
        if (lead_process) {
            std::cout << "chaos mode: rank 3 will be killed at step 45\n\n";
        }
    }

    // 4. Run on the simulated 1 Gbps Ethernet cluster.
    train::TrainResult result;
    try {
        result = train::train_distributed(
            workers, net, config,
            [&](std::uint64_t seed) { return nn::make_mlp(mcfg, seed); },
            [&](std::int64_t step, int rank) {
                return dataset.batch_flat(sampler.batch_indices(step, rank, 16));
            },
            [&] { return dataset.batch_flat(sampler.test_indices(256)); });
    } catch (const comm::CommError& e) {
        // Multi-process chaos: the victim's process ends HERE, with the
        // typed code the launcher's --allow-exit whitelists.
        std::cerr << "rank " << (local_rank >= 0 ? local_rank : 0) << ": "
                  << e.what() << "\n";
        return e.kind() == comm::CommErrorKind::RankKilled ? 43 : 42;
    }

    // 5. Inspect what happened. In TCP mode only the lead process reports
    // (each peer process computed the bit-identical replica).
    if (!lead_process) return 0;
    std::cout << "epoch  density   train-loss  val-acc\n";
    for (const auto& e : result.epochs) {
        std::cout << "  " << e.epoch << "     " << e.density << "     "
                  << e.train_loss << "      " << e.val_accuracy << "\n";
    }
    std::cout << "\nmean modeled comm time/iter on 1GbE: "
              << result.mean_comm_virtual_s * 1e3 << " ms\n"
              << "bytes sent by rank 0 overall:        "
              << result.rank0_comm.bytes_sent << "\n";

    if (chaos) {
        std::cout << "\nself-healing outcome:\n";
        if (tcp) {
            // Each surviving process reports itself; the launcher line
            // ("expected casualty") plus these epochs tell the whole story.
            std::cout << "  this process survived; membership epoch: "
                      << result.final_membership_epoch
                      << "  regroups: " << result.regroups << "\n";
        } else {
            std::cout << "  survivors:";
            for (int r : result.final_members) std::cout << " " << r;
            std::cout << "\n  membership epoch: " << result.final_membership_epoch
                      << "  regroups: " << result.regroups << "\n";
            bool consistent = true;
            for (const auto& p : result.survivor_params) {
                consistent = consistent && (p == result.survivor_params.front());
            }
            std::cout << "  survivor replicas bit-identical: "
                      << (consistent ? "yes" : "NO") << "\n";
            if (!consistent) return 1;
        }
    }

    if (telemetry) {
        std::cout << "\ntelemetry: " << telemetry->exchanges()
                  << " snapshots -> " << telemetry_out << "\n"
                  << "cost attribution (measured vs alpha-beta predicted):\n";
        for (const auto& e : attribution->entries()) {
            std::cout << "  " << e.proto << " world=" << e.world
                      << " measured=" << e.mean_measured_comm_s() * 1e3 << " ms";
            if (e.predicted_comm_s) {
                std::cout << " predicted=" << *e.predicted_comm_s * 1e3 << " ms";
            }
            if (const auto r = e.ratio()) std::cout << " ratio=" << *r;
            std::cout << "\n";
        }
        if (recorder && recorder->dumps() > 0) {
            std::cout << "flight recorder bundle: " << recorder->path() << "\n";
        }
    }

    if (tracer) {
        if (!tracer->write_chrome_trace_file(trace_out)) return 1;
        const obs::PhaseTotals& tp = result.rank0_traced_phases;
        std::cout << "\ntrace written to " << trace_out
                  << "  (load in https://ui.perfetto.dev)\n"
                  << "rank 0 spans retained: " << tracer->rank_spans(0).size()
                  << " (dropped " << tracer->dropped(0) << ")\n"
                  << "trace-derived means/iter: compute "
                  << tp.mean_compute_s() * 1e3 << " ms, select "
                  << tp.mean_compress_s() * 1e3 << " ms, comm(virtual) "
                  << tp.mean_comm_virtual_s() * 1e3 << " ms\n";
    }
    return 0;
}
