#include "comm/cluster.hpp"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gtopk::comm {

Cluster::RunResult Cluster::run_timed(int world_size, NetworkModel model,
                                      const WorkerFn& fn, obs::Tracer* tracer,
                                      double recv_timeout_s) {
    InProcTransport transport(world_size);
    return run_timed_on(transport, model, fn, tracer, recv_timeout_s);
}

Cluster::RunResult Cluster::run_timed_on(Transport& transport, NetworkModel model,
                                         const WorkerFn& fn, obs::Tracer* tracer,
                                         double recv_timeout_s) {
    const int world_size = transport.world_size();
    if (tracer && tracer->world_size() < world_size) {
        throw std::invalid_argument("Cluster: tracer world_size below cluster's");
    }
    transport.set_tracer(tracer);

    RunResult result;
    result.stats.resize(static_cast<std::size_t>(world_size));
    result.final_time_s.resize(static_cast<std::size_t>(world_size), 0.0);

    std::mutex error_mutex;
    std::exception_ptr first_error;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        threads.emplace_back([&, r] {
            util::set_thread_rank(r);  // "[I 12:03:04.512 r03]" log prefixes
            Communicator comm(transport, r, model);
            comm.set_tracer(tracer);
            comm.set_recv_deadline(DeadlineClock::Host, recv_timeout_s);
            try {
                fn(comm);
            } catch (const MailboxClosed&) {
                // A peer failed first; our abort is secondary.
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
                transport.shutdown();
            }
            result.stats[static_cast<std::size_t>(r)] = comm.stats();
            result.final_time_s[static_cast<std::size_t>(r)] = comm.clock().now_s();
        });
    }
    for (auto& t : threads) t.join();

    if (first_error) std::rethrow_exception(first_error);
    return result;
}

std::vector<CommStats> Cluster::run(int world_size, NetworkModel model,
                                    const WorkerFn& fn, obs::Tracer* tracer,
                                    double recv_timeout_s) {
    return run_timed(world_size, model, fn, tracer, recv_timeout_s).stats;
}

std::vector<CommStats> Cluster::run_on(Transport& transport, NetworkModel model,
                                       const WorkerFn& fn, obs::Tracer* tracer,
                                       double recv_timeout_s) {
    return run_timed_on(transport, model, fn, tracer, recv_timeout_s).stats;
}

Cluster::LocalRunResult Cluster::run_local(Transport& transport, int rank,
                                           NetworkModel model, const WorkerFn& fn,
                                           obs::Tracer* tracer,
                                           double recv_timeout_s) {
    if (rank < 0 || rank >= transport.world_size()) {
        throw std::invalid_argument("Cluster::run_local: rank outside world");
    }
    if (tracer && tracer->world_size() < transport.world_size()) {
        throw std::invalid_argument("Cluster: tracer world_size below cluster's");
    }
    transport.set_tracer(tracer);

    util::set_thread_rank(rank);
    Communicator comm(transport, rank, model);
    comm.set_tracer(tracer);
    comm.set_recv_deadline(DeadlineClock::Host, recv_timeout_s);

    LocalRunResult result;
    try {
        fn(comm);
        result.completed = true;
    } catch (const MailboxClosed&) {
        // Shutdown raced the worker (peer failure propagated locally).
    } catch (...) {
        transport.shutdown();
        throw;
    }
    result.stats = comm.stats();
    result.final_time_s = comm.clock().now_s();
    return result;
}

}  // namespace gtopk::comm
