// AsyncCollective: non-blocking execution of a Schedule's op program, so
// multiple collectives can be in flight on one Communicator at once — the
// engine behind layer-wise gTop-k communication/computation overlap
// (DESIGN.md §14).
//
// A handle wraps one generated Schedule (schedule.hpp) and executes its
// per-rank op program INCREMENTALLY: start() reserves a private tag band in
// the async tag space (comm/tags.hpp) — or, for an absolute-tag schedule
// (ps, telemetry), uses the op tags as they are without drawing from the
// band — and runs ops until the first unmatched receive; test()/wait()
// resume from that point. It is the runtime's one receive path: every
// receive is a Communicator::try_recv_async pumped by a wait(). Sends are
// buffered (never block), so a pump always drains every runnable op; a
// receive op suspends the program until its message is polled in via
// Communicator::try_recv_async.
//
// Cross-handle progress: a handle registers itself as a ProgressSource on
// start(), and wait() pumps EVERY registered source (not just itself)
// between polls — handle A's receive chain can depend on this rank
// reaching a send inside handle B's program, and pump-all is what makes
// that composition deadlock-free (tools/commcheck --concurrent certifies
// the same executor model statically). The pump order is ascending
// priority(), which is how the P3-style scheduler lets front-layer buckets
// preempt back-layer traffic. An idle wait() yields for a few polls, then
// sleeps between polls.
//
// Virtual-time model: async transfers ride a per-rank NIC timeline
// (Communicator::send_async / try_recv_async) that runs CONCURRENTLY with
// the rank's virtual clock — issuing and pumping never advance the clock,
// so modeled communication hides under modeled compute. Within a handle,
// sends start no earlier than the arrivals they depend on; wait() is the
// one synchronization point, advancing the clock to the handle's last
// modeled event, and CommStats::comm_time_s grows by exactly that advance.
//
// Composition: the engine talks only to the Communicator's message
// surface, so ReliableTransport, chaos injection, conformance recording and
// telemetry all compose unchanged. The handle honors the communicator's
// receive deadline with a CommError(RecvTimeout) naming rank, physical
// peer and tag — which is what routes overlapped elastic runs into the
// regroup path:
//   * DeadlineClock::Host: recv_timeout_s host seconds without progress.
//   * DeadlineClock::Virtual: a matched message whose modeled arrival is
//     later than last_event_s() + recv_timeout_s is consumed and times out
//     (Transport::receive_for_virtual's rule); one that never arrives times
//     out after recv_host_grace_s.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "collectives/schedule.hpp"
#include "comm/communicator.hpp"
#include "obs/trace.hpp"

namespace gtopk::collectives {

class AsyncCollective : public comm::ProgressSource {
public:
    enum class State {
        Created,  // constructed, no tags reserved, no ops run
        Started,  // tag band reserved, op program (partially) executing
        Done,     // program complete, result available
    };

    /// `sched` must target comm.size() ranks; `span_name` (static storage)
    /// names the per-handle trace span covering start() → completion, or is
    /// nullptr for none (the blocking collectives record their own).
    AsyncCollective(comm::Communicator& comm, Schedule sched,
                    const char* span_name);
    ~AsyncCollective() override;

    AsyncCollective(const AsyncCollective&) = delete;
    AsyncCollective& operator=(const AsyncCollective&) = delete;

    /// Reserve this handle's async tag band (none for an absolute-tag
    /// schedule: base 0), register as a progress source and run every
    /// immediately-runnable op. Throws on double start.
    void start();

    /// Non-blocking progress: pump every registered source once and report
    /// whether THIS handle completed. Throws if not started.
    bool test();

    /// Drive to completion, pumping all registered sources. Throws
    /// std::logic_error before start() or on a second wait();
    /// comm::CommError(RecvTimeout) when the communicator's receive
    /// deadline expires (see the header comment for both clocks).
    void wait();

    State state() const { return state_; }
    bool done() const { return state_ == State::Done; }

    /// Base of this handle's private tag band (valid once started; 0 for an
    /// absolute-tag schedule).
    int tag_base() const { return tag_base_; }

    /// Latest modeled event of this handle (send end / arrival consumed) —
    /// its completion time on the NIC timeline. wait() advances the rank's
    /// virtual clock to it, which is the ONLY point where the concurrent
    /// communication timeline re-synchronizes with modeled compute.
    double last_event_s() const { return last_event_s_; }

    /// Drain priority: lower = served first by pump_progress (P3 rule).
    void set_priority(int priority) { priority_ = priority; }
    int priority() const { return priority_; }
    int pump_priority() const override { return priority_; }

    const Schedule& schedule() const { return sched_; }

    bool pump_some() override;

protected:
    comm::Communicator& comm() { return comm_; }

    /// last_event_s() as it stood when the op now executing began — with
    /// last_event_s() after it, the op's extent on the handle's timeline
    /// (a recv's includes the wait for its arrival).
    double op_begin_s() const { return op_begin_s_; }

    /// Timed sends for op_send implementations: the payload rides the
    /// rank's NIC timeline (Communicator::send_async) starting no earlier
    /// than every arrival this handle has consumed (data dependency) or its
    /// issue time, and the handle's completion frontier advances to the
    /// transfer's end. The copying overload serializes a reusable buffer
    /// (e.g. a broadcast root fanning out the same wire image).
    void send_async(const CommOp& op, int tag, std::vector<std::byte>&& payload);
    void send_async_copy(const CommOp& op, int tag,
                         std::span<const std::byte> payload);

    /// Execute one Send op: subclass serializes its payload and hands it to
    /// send_async/send_async_copy on `tag` (absolute). Called in program
    /// order.
    virtual void op_send(const CommOp& op, int tag) = 0;

    /// Consume one matched Recv op's payload, in program order.
    virtual void op_recv(const CommOp& op, std::vector<std::byte> payload) = 0;

    /// Called exactly once when the op program finishes (also for empty
    /// programs, e.g. world == 1): finalize the result.
    virtual void on_complete() {}

private:
    void complete_();
    /// Execute the matched Recv `op`: apply a virtual receive deadline,
    /// advance the timeline to the arrival and hand the payload to op_recv
    /// (the caller advances pc_).
    void consume_(const CommOp& op, comm::Communicator::AsyncMsg msg);

    comm::Communicator& comm_;
    Schedule sched_;
    const char* span_name_;
    State state_ = State::Created;
    bool waited_ = false;
    bool registered_ = false;
    int tag_base_ = -1;
    int priority_ = 0;
    std::size_t pc_ = 0;  // next op index in this rank's program
    /// Earliest modeled time this handle's next send may start: its issue
    /// time, raised by every arrival it consumes (data dependency).
    double dep_time_s_ = 0.0;
    /// Latest modeled event (see last_event_s()).
    double last_event_s_ = 0.0;
    double op_begin_s_ = 0.0;  // see op_begin_s()
    // Manual span stamps: the handle's span overlaps other handles' spans,
    // so it cannot be a ScopedSpan on the stack.
    double span_v_begin_s_ = 0.0;
    double span_h_begin_s_ = 0.0;
};

}  // namespace gtopk::collectives
