// tcp_rank_worker: one rank of a multi-process parity/chaos run, spawned by
// tcp_transport_test / tcp_recovery_test via fork/exec (or by gtopkrun).
// Builds the shared ParityScenario over a real TcpTransport (optionally
// under the standard decorators) and reports through the typed exit-code
// contract in tcp_parity_common.hpp:
//
//   tcp_rank_worker --rank R --world W --port P --algo gtopk --out params.bin
//                   [--conformance] [--record-out edges.txt] [--reliable]
//                   [--die-at-step K] [--sigkill-at-step K] [--sigkill-rank R]
//                   [--recv-timeout S] [--elastic] [--stats-out stats.txt]
//                   [--flight-out bundle.json]
//                   [--drop-prob F] [--corrupt-prob F] [--fault-seed N]
//                   [--socket-kill-every N] [--socket-truncate-every N]
//                   [--socket-max-faults N]
//
// When --rank/--world/--port are absent the worker bootstraps from the
// GTOPK_RANK / GTOPK_WORLD_SIZE / GTOPK_RENDEZVOUS environment instead —
// i.e. it can be launched by gtopkrun, where every rank shares one argv; in
// that mode all output paths get a ".<rank>" suffix so ranks don't clobber
// each other.
//
// --die-at-step wraps the transport in a FaultInjectingTransport whose plan
// kills this rank at that trainer step — the multi-process analogue of the
// in-process chaos kill. --sigkill-at-step is the harsher variant: the same
// deterministic step trigger, but the rank dies by raising SIGKILL on
// itself — an uncatchable real process death (waitstatus 137, sockets torn
// down by the kernel mid-whatever), exactly what an OOM killer or operator
// `kill -9` looks like to the peers. --drop-prob/--corrupt-prob inject seeded loss and
// corruption on the ARQ envelope tag (under the reliable layer, so the wire
// ARQ must recover them bit-exactly). --socket-kill-every/--socket-
// truncate-every arm TcpTransport's SOCKET fault injector: scheduled
// connection kills and truncated frames that exercise the reconnect /
// session-resume path. --elastic hangs a MembershipService off the stack so
// a dead peer yields a wire regroup instead of an abort. --record-out
// stacks a RecordingTransport on top and dumps this process's OUTBOUND
// edges (src == local rank; over TCP a process never observes a remote
// sender's program order) as "dst tag bytes" lines for the parent's
// conformance diff. --stats-out dumps post-run transport/elastic counters
// ("key value" lines) so the parent can assert reconnects really happened
// and the survivor view is the expected one.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/comm_error.hpp"
#include "comm/fault_transport.hpp"
#include "comm/membership.hpp"
#include "comm/recording_transport.hpp"
#include "comm/reliable_transport.hpp"
#include "comm/tags.hpp"
#include "comm/tcp_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "tcp_parity_common.hpp"

namespace {

/// Raises SIGKILL on this process the moment the trainer reports the
/// configured step. Placed outermost so the trigger fires at the exact
/// iteration boundary BEFORE any graceful-exit path (socket teardown) can
/// run — the peers must see an abrupt kernel-level death, same as an OOM
/// kill or operator `kill -9`.
class SigkillAtStep final : public gtopk::comm::Transport {
public:
    SigkillAtStep(std::unique_ptr<gtopk::comm::Transport> inner,
                  std::int64_t kill_step)
        : inner_(std::move(inner)), kill_step_(kill_step) {}

    int world_size() const override { return inner_->world_size(); }
    void deliver(int dst, gtopk::comm::Message msg) override {
        inner_->deliver(dst, std::move(msg));
    }
    std::optional<gtopk::comm::Message> try_receive(int rank, int source,
                                                    int tag) override {
        return inner_->try_receive(rank, source, tag);
    }
    void shutdown() override { inner_->shutdown(); }
    void begin_epoch(int rank, int epoch) override {
        inner_->begin_epoch(rank, epoch);
    }
    bool rank_alive(int rank) const override { return inner_->rank_alive(rank); }
    void on_progress(int rank, std::int64_t step) override {
        if (step >= kill_step_) ::raise(SIGKILL);
        inner_->on_progress(rank, step);
    }
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override {
        return inner_->pending_with_tag_at_least(rank, min_tag);
    }
    void set_tracer(gtopk::obs::Tracer* t) override { inner_->set_tracer(t); }
    bool shared_memory_fabric() const override {
        return inner_->shared_memory_fabric();
    }
    std::vector<int> take_reconnected(int rank) override {
        return inner_->take_reconnected(rank);
    }

private:
    std::unique_ptr<gtopk::comm::Transport> inner_;
    std::int64_t kill_step_;
};

int require_arg(int argc, int i, const char* flag) {
    if (i + 1 >= argc) {
        std::cerr << "tcp_rank_worker: " << flag << " needs a value\n";
        std::exit(2);
    }
    return i + 1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gtopk;

    int rank = -1;
    int world = 0;
    int port = 0;
    std::string algo_name;
    std::string out_path;
    std::string record_path;
    std::string stats_path;
    std::string flight_path;
    long die_at_step = -1;
    long sigkill_rank = -1;
    bool real_sigkill = false;
    bool reliable = false;
    bool conformance = false;
    bool elastic = false;
    double recv_timeout_s = 10.0;
    bool recv_timeout_set = false;
    double drop_prob = 0.0;
    double corrupt_prob = 0.0;
    unsigned long fault_seed = 1;
    unsigned long socket_kill_every = 0;
    unsigned long socket_truncate_every = 0;
    unsigned long socket_max_faults = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--rank") {
            rank = std::atoi(argv[i = require_arg(argc, i, "--rank")]);
        } else if (arg == "--world") {
            world = std::atoi(argv[i = require_arg(argc, i, "--world")]);
        } else if (arg == "--port") {
            port = std::atoi(argv[i = require_arg(argc, i, "--port")]);
        } else if (arg == "--algo") {
            algo_name = argv[i = require_arg(argc, i, "--algo")];
        } else if (arg == "--out") {
            out_path = argv[i = require_arg(argc, i, "--out")];
        } else if (arg == "--record-out") {
            record_path = argv[i = require_arg(argc, i, "--record-out")];
        } else if (arg == "--die-at-step") {
            die_at_step = std::atol(argv[i = require_arg(argc, i, "--die-at-step")]);
        } else if (arg == "--sigkill-at-step") {
            die_at_step =
                std::atol(argv[i = require_arg(argc, i, "--sigkill-at-step")]);
            real_sigkill = true;
        } else if (arg == "--sigkill-rank") {
            sigkill_rank =
                std::atol(argv[i = require_arg(argc, i, "--sigkill-rank")]);
        } else if (arg == "--stats-out") {
            stats_path = argv[i = require_arg(argc, i, "--stats-out")];
        } else if (arg == "--flight-out") {
            flight_path = argv[i = require_arg(argc, i, "--flight-out")];
        } else if (arg == "--recv-timeout") {
            recv_timeout_s = std::atof(argv[i = require_arg(argc, i, "--recv-timeout")]);
            recv_timeout_set = true;
        } else if (arg == "--drop-prob") {
            drop_prob = std::atof(argv[i = require_arg(argc, i, "--drop-prob")]);
        } else if (arg == "--corrupt-prob") {
            corrupt_prob = std::atof(argv[i = require_arg(argc, i, "--corrupt-prob")]);
        } else if (arg == "--fault-seed") {
            fault_seed = std::strtoul(argv[i = require_arg(argc, i, "--fault-seed")],
                                      nullptr, 10);
        } else if (arg == "--socket-kill-every") {
            socket_kill_every = std::strtoul(
                argv[i = require_arg(argc, i, "--socket-kill-every")], nullptr, 10);
        } else if (arg == "--socket-truncate-every") {
            socket_truncate_every = std::strtoul(
                argv[i = require_arg(argc, i, "--socket-truncate-every")], nullptr,
                10);
        } else if (arg == "--socket-max-faults") {
            socket_max_faults = std::strtoul(
                argv[i = require_arg(argc, i, "--socket-max-faults")], nullptr, 10);
        } else if (arg == "--reliable") {
            reliable = true;
        } else if (arg == "--conformance") {
            conformance = true;
        } else if (arg == "--elastic") {
            elastic = true;
        } else {
            std::cerr << "tcp_rank_worker: unknown flag " << arg << "\n";
            return 2;
        }
    }
    std::string host = "127.0.0.1";
    if (rank < 0 && world <= 0 && port <= 0) {
        // gtopkrun launch: every rank gets the same argv; identity comes
        // from the environment and output paths get a rank suffix.
        try {
            if (const auto env = comm::TcpTransport::config_from_env()) {
                rank = env->rank;
                world = env->world_size;
                host = env->rendezvous_host;
                port = env->rendezvous_port;
                std::string sfx = ".";
                sfx += std::to_string(rank);
                if (!out_path.empty()) out_path += sfx;
                if (!record_path.empty()) record_path += sfx;
                if (!stats_path.empty()) stats_path += sfx;
                if (!flight_path.empty()) flight_path += sfx;
            }
        } catch (const std::exception& e) {
            std::cerr << "tcp_rank_worker: bad GTOPK_* environment: " << e.what()
                      << "\n";
            return 2;
        }
    }
    if (rank < 0 || world <= 0 || port <= 0 || algo_name.empty()) {
        std::cerr << "tcp_rank_worker: --rank/--world/--port (or GTOPK_* env) "
                     "and --algo required\n";
        return 2;
    }

    std::unique_ptr<obs::FlightRecorder> frec;
    std::unique_ptr<obs::Telemetry> telem;
    try {
        comm::TcpConfig tcfg;
        tcfg.rank = rank;
        tcfg.world_size = world;
        tcfg.rendezvous_host = host;
        tcfg.rendezvous_port = port;
        tcfg.connect_timeout_s = 30.0;
        if (socket_kill_every > 0 || socket_truncate_every > 0) {
            tcfg.socket_faults.kill_every_n = socket_kill_every;
            tcfg.socket_faults.truncate_every_n = socket_truncate_every;
            tcfg.socket_faults.max_faults = socket_max_faults;
        }

        // Decorator stack, innermost out: Tcp -> FaultInjecting -> Reliable
        // -> Recording (record the app's program order, outermost).
        auto tcp = std::make_unique<comm::TcpTransport>(tcfg);
        comm::TcpTransport* tcp_raw = tcp.get();
        comm::FaultInjectingTransport* faulty = nullptr;
        std::unique_ptr<comm::Transport> stack = std::move(tcp);
        if ((die_at_step >= 0 && !real_sigkill) || drop_prob > 0.0 ||
            corrupt_prob > 0.0) {
            comm::FaultPlan plan;
            plan.seed = fault_seed;
            if (die_at_step >= 0 && !real_sigkill) {
                plan.kill_at_step(rank, die_at_step);
            }
            if (drop_prob > 0.0 || corrupt_prob > 0.0) {
                // Faults target the ARQ envelope tag UNDER the reliable
                // layer: the wire ARQ must mask every one of them or the
                // parent's bit-identity check fails.
                comm::FaultRule rule;
                rule.tag = comm::kTagReliableData;
                rule.drop_prob = drop_prob;
                rule.corrupt_prob = corrupt_prob;
                plan.add(rule);
            }
            auto f = std::make_unique<comm::FaultInjectingTransport>(std::move(stack),
                                                                     plan);
            faulty = f.get();
            stack = std::move(f);
        }
        if (reliable) {
            // Wire mode: the reliable layer runs the full ARQ — sequence
            // envelopes out, cumulative acks and gap pulls back as frames.
            stack = std::make_unique<comm::ReliableTransport>(std::move(stack),
                                                              comm::ReliableConfig{});
        }
        // --sigkill-rank gates the trigger to one rank so a shared-argv
        // gtopkrun launch can single out a victim; absent, the flag kills
        // whichever rank it was handed to (the direct fork/exec path).
        if (real_sigkill && die_at_step >= 0 &&
            (sigkill_rank < 0 || sigkill_rank == rank)) {
            stack = std::make_unique<SigkillAtStep>(std::move(stack), die_at_step);
        }
        comm::RecordingTransport* recorder = nullptr;
        if (!record_path.empty()) {
            auto rec = std::make_unique<comm::RecordingTransport>(std::move(stack));
            recorder = rec.get();
            stack = std::move(rec);
        }

        std::unique_ptr<comm::MembershipService> membership;
        if (elastic) {
            membership = std::make_unique<comm::MembershipService>(*stack);
            // The receive deadline is the survivors' stall detector; it must
            // undercut the regroup grace so the deadline cascade routes every
            // survivor into the round before grace expiry.
            if (!recv_timeout_set) recv_timeout_s = 1.0;
        }

        tcptest::ParityScenario scenario(world);
        const train::Algorithm algo = tcptest::parse_algorithm(algo_name);
        train::TrainConfig cfg = conformance ? scenario.conformance_config(algo)
                                             : scenario.config(algo);
        cfg.transport = stack.get();
        cfg.local_rank = rank;
        cfg.recv_timeout_s = recv_timeout_s;
        if (membership) {
            cfg.membership = membership.get();
            cfg.checkpoint_every = 4;
        }
        if (!flight_path.empty()) {
            obs::FlightRecorderConfig fcfg;
            fcfg.path = flight_path;
            frec = std::make_unique<obs::FlightRecorder>(fcfg);
            telem = std::make_unique<obs::Telemetry>(world);
            telem->set_flight_recorder(frec.get());
            cfg.telemetry = telem.get();
        }

        const train::TrainResult result = scenario.run(cfg);

        if (!out_path.empty()) {
            tcptest::write_params(out_path, result.final_params);
        }
        if (!stats_path.empty()) {
            std::ofstream os(stats_path, std::ios::trunc);
            os << "reconnects " << tcp_raw->reconnects() << "\n";
            os << "socket_faults " << tcp_raw->socket_faults_injected() << "\n";
            os << "injected_drops " << (faulty ? faulty->counts().dropped : 0)
               << "\n";
            os << "injected_corruptions "
               << (faulty ? faulty->counts().corrupted : 0) << "\n";
            os << "regroups " << result.regroups << "\n";
            os << "epoch " << result.final_membership_epoch << "\n";
            if (!result.epochs.empty()) {
                os << "loss_first " << result.epochs.front().train_loss << "\n";
                os << "loss_last " << result.epochs.back().train_loss << "\n";
            }
            os << "members";
            if (membership) {
                // local_rank mode: result.final_members is just {rank}; the
                // agreed survivor set lives in the membership view.
                for (const int m : membership->current(rank).members) os << ' ' << m;
            } else {
                for (const int m : result.final_members) os << ' ' << m;
            }
            os << "\n";
        }
        if (frec) frec->dump("run-complete");
        if (recorder != nullptr) {
            std::ofstream os(record_path, std::ios::trunc);
            for (int dst = 0; dst < world; ++dst) {
                for (const comm::RecordedMsg& m : recorder->edge_log(rank, dst)) {
                    os << dst << ' ' << m.tag << ' ' << m.bytes << '\n';
                }
            }
        }
        return tcptest::kExitOk;
    } catch (const comm::CommError& e) {
        if (frec) frec->dump("comm-abort");
        std::cerr << "tcp_rank_worker rank " << rank << ": " << e.what() << "\n";
        return e.kind() == comm::CommErrorKind::RankKilled
                   ? tcptest::kExitRankKilled
                   : tcptest::kExitRecvTimeout;
    } catch (const std::exception& e) {
        if (frec) frec->dump("abort");
        std::cerr << "tcp_rank_worker rank " << rank << ": " << e.what() << "\n";
        return tcptest::kExitOtherError;
    }
}
