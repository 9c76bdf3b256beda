// Cluster: spawns P worker threads, each with its own Communicator, runs a
// user callback on every rank, and joins — the `mpirun` of this repo.
//
// If any rank throws, the cluster shuts the transport down (unblocking
// peers stuck in recv) and rethrows the first exception on the caller's
// thread, so a failing test surfaces as a failure instead of a hang.
#pragma once

#include <functional>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/network_model.hpp"
#include "comm/transport.hpp"

namespace gtopk::obs {
class Tracer;
}  // namespace gtopk::obs

namespace gtopk::comm {

class Cluster {
public:
    using WorkerFn = std::function<void(Communicator&)>;

    /// Run `fn` on `world_size` ranks over a fresh InProcTransport.
    /// Returns the final per-rank CommStats (index == rank).
    /// With a non-null `tracer` (whose world_size must cover this one),
    /// every rank's Communicator and the transport record spans/metrics
    /// into it; nullptr (the default) keeps tracing entirely off.
    /// `recv_timeout_s` > 0 arms every rank's Communicator receive deadline
    /// (host seconds; see Communicator::set_recv_deadline) so a missing
    /// message fails as CommError instead of hanging — the default 0 keeps
    /// the historical wait-forever behavior.
    static std::vector<CommStats> run(int world_size, NetworkModel model,
                                      const WorkerFn& fn,
                                      obs::Tracer* tracer = nullptr,
                                      double recv_timeout_s = 0.0);

    /// Convenience: run and also collect each rank's final virtual time.
    struct RunResult {
        std::vector<CommStats> stats;
        std::vector<double> final_time_s;
    };
    static RunResult run_timed(int world_size, NetworkModel model, const WorkerFn& fn,
                               obs::Tracer* tracer = nullptr,
                               double recv_timeout_s = 0.0);

    /// Run over an EXTERNAL transport (e.g. a FaultInjectingTransport) —
    /// the chaos harness's entry point. The transport provides the world
    /// size and is shut down on the first rank failure exactly like the
    /// in-proc one; it is NOT shut down on success, so callers can inspect
    /// it (fault counts) and reuse it across runs is not supported.
    static std::vector<CommStats> run_on(Transport& transport, NetworkModel model,
                                         const WorkerFn& fn,
                                         obs::Tracer* tracer = nullptr,
                                         double recv_timeout_s = 0.0);
    static RunResult run_timed_on(Transport& transport, NetworkModel model,
                                  const WorkerFn& fn, obs::Tracer* tracer = nullptr,
                                  double recv_timeout_s = 0.0);

    /// Run ONE rank of a multi-process world on the calling thread — the
    /// per-process half of a TcpTransport deployment, where every peer rank
    /// lives in its own OS process and only `rank` is local. Exception
    /// semantics mirror run_timed_on: a worker failure shuts the transport
    /// down (so this process's blocked receives wake) and rethrows;
    /// MailboxClosed is swallowed as a secondary effect of a peer-initiated
    /// shutdown.
    struct LocalRunResult {
        CommStats stats;
        double final_time_s = 0.0;
        bool completed = false;  // false: MailboxClosed cut the worker short
    };
    static LocalRunResult run_local(Transport& transport, int rank,
                                    NetworkModel model, const WorkerFn& fn,
                                    obs::Tracer* tracer = nullptr,
                                    double recv_timeout_s = 0.0);
};

}  // namespace gtopk::comm
