#include "collectives/async.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

namespace gtopk::collectives {

AsyncCollective::AsyncCollective(comm::Communicator& comm, Schedule sched,
                                 const char* span_name)
    : comm_(comm), sched_(std::move(sched)), span_name_(span_name) {
    if (sched_.world != comm_.size()) {
        throw std::invalid_argument("AsyncCollective: schedule world " +
                                    std::to_string(sched_.world) +
                                    " != communicator size " +
                                    std::to_string(comm_.size()));
    }
}

AsyncCollective::~AsyncCollective() {
    if (registered_) comm_.remove_progress_source(this);
}

void AsyncCollective::start() {
    if (state_ != State::Created) {
        throw std::logic_error("AsyncCollective: start() called twice");
    }
    // An absolute-tag schedule (ps, telemetry) runs at base 0 and leaves the
    // SPMD cursor alone, the rule analysis::SchedulePredictor replays.
    tag_base_ = sched_.absolute_tags ? 0 : comm_.fresh_async_tags(sched_.tag_count);
    state_ = State::Started;
    span_v_begin_s_ = comm_.clock().now_s();
    span_h_begin_s_ = obs::host_now_s();
    // The issue time anchors the NIC timeline: nothing this handle sends
    // may start before the data existed (e.g. the bucket's gradient-ready
    // time the trainer advanced the clock to).
    dep_time_s_ = comm_.clock().now_s();
    last_event_s_ = dep_time_s_;
    comm_.add_progress_source(this);
    registered_ = true;
    pump_some();
}

bool AsyncCollective::pump_some() {
    if (state_ != State::Started) return false;
    const std::vector<CommOp>& program = sched_.rank_ops(comm_.rank());
    bool progressed = false;
    while (pc_ < program.size()) {
        const CommOp& op = program[pc_];
        op_begin_s_ = last_event_s_;
        if (op.kind == CommOp::Kind::Send) {
            // Buffered send: always runnable.
            op_send(op, tag_base_ + op.tag_offset);
        } else {
            std::optional<comm::Communicator::AsyncMsg> msg =
                comm_.try_recv_async(op.peer, tag_base_ + op.tag_offset);
            if (!msg) break;  // suspended until the message arrives
            consume_(op, std::move(*msg));
        }
        ++pc_;
        progressed = true;
    }
    if (pc_ == program.size()) complete_();
    return progressed;
}

void AsyncCollective::consume_(const CommOp& op, comm::Communicator::AsyncMsg msg) {
    // A virtual deadline applies Transport::receive_for_virtual's rule on the
    // handle's timeline: the receive gave up at last_event_s_ + timeout of
    // modeled time, so a later arrival is consumed (already popped) and the
    // op times out — an outcome of modeled arrivals only, never host speed.
    const double timeout_s = comm_.recv_timeout_s();
    if (comm_.recv_deadline_clock() == comm::DeadlineClock::Virtual &&
        timeout_s > 0.0 && msg.arrival_s > last_event_s_ + timeout_s) {
        throw comm::CommError(comm::CommErrorKind::RecvTimeout,
                              comm_.physical_rank(), comm_.to_physical(op.peer),
                              tag_base_ + op.tag_offset, timeout_s);
    }
    dep_time_s_ = std::max(dep_time_s_, msg.arrival_s);
    last_event_s_ = std::max(last_event_s_, msg.arrival_s);
    op_recv(op, std::move(msg.payload));
}

void AsyncCollective::send_async(const CommOp& op, int tag,
                                 std::vector<std::byte>&& payload) {
    const double end =
        comm_.send_async(op.peer, tag, std::move(payload), dep_time_s_);
    last_event_s_ = std::max(last_event_s_, end);
}

void AsyncCollective::send_async_copy(const CommOp& op, int tag,
                                      std::span<const std::byte> payload) {
    std::vector<std::byte> buf = comm_.buffer_pool().acquire(payload.size());
    if (!payload.empty()) {
        std::memcpy(buf.data(), payload.data(), payload.size());
    }
    send_async(op, tag, std::move(buf));
}

void AsyncCollective::complete_() {
    state_ = State::Done;
    if (registered_) {
        comm_.remove_progress_source(this);
        registered_ = false;
    }
    on_complete();
    obs::Tracer* tracer = comm_.tracer();
    if (tracer && span_name_) {
        // The handle's span overlaps its siblings': begin stamps from
        // start(), end stamps now.
        tracer->record_detached({.name = span_name_, .category = "agg",
                                 .rank = comm_.physical_rank(),
                                 .v_begin_s = span_v_begin_s_,
                                 .v_end_s = last_event_s_,
                                 .h_begin_s = span_h_begin_s_,
                                 .attrs = {.tag = tag_base_, .round = priority_}});
    }
}

bool AsyncCollective::test() {
    if (state_ == State::Created) {
        throw std::logic_error("AsyncCollective: test() before start()");
    }
    if (state_ == State::Done) return true;
    comm_.pump_progress();
    return state_ == State::Done;
}

void AsyncCollective::wait() {
    if (state_ == State::Created) {
        throw std::logic_error("AsyncCollective: wait() before start()");
    }
    if (waited_) throw std::logic_error("AsyncCollective: wait() called twice");
    waited_ = true;

    // Host bound on a wait with no global progress: the deadline itself, or
    // under a virtual deadline the grace for a message that never arrives
    // (consume_ catches late ones).
    const double timeout_s = comm_.recv_timeout_s();
    const double idle_limit_s =
        comm_.recv_deadline_clock() == comm::DeadlineClock::Virtual
            ? comm_.recv_host_grace_s()
            : timeout_s;
    double idle_since = obs::host_now_s();
    int idle_polls = 0;
    while (state_ != State::Done) {
        // Pump EVERY in-flight handle, not just this one: our receive chain
        // may depend on a send buried in a sibling's program.
        const bool any = comm_.pump_progress();
        if (state_ == State::Done) break;
        if (any) {
            idle_since = obs::host_now_s();
            idle_polls = 0;
            continue;
        }
        // No handle made progress anywhere: honor the receive deadline so
        // a dropped message or dead peer surfaces as a typed CommError
        // (chaos/elastic runs route this into the regroup path).
        if (timeout_s > 0.0 && obs::host_now_s() - idle_since > idle_limit_s) {
            const CommOp& blocked = sched_.rank_ops(comm_.rank())[pc_];
            throw comm::CommError(comm::CommErrorKind::RecvTimeout,
                                  comm_.physical_rank(),
                                  comm_.to_physical(blocked.peer),
                                  tag_base_ + blocked.tag_offset, timeout_s);
        }
        // Back off gently: yield first, then sleep, so an idle wait does
        // not saturate a host core while peers compute.
        if (++idle_polls < 64) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

    // The single compute/comm synchronization point: the rank resumes at
    // the handle's completion on the NIC timeline (a no-op when compute
    // already ran past it — fully hidden communication). The jump is the
    // exposed wait, the clock advance comm_time_s accounts.
    const double before = comm_.clock().now_s();
    comm_.clock().advance_to(last_event_s_);
    comm_.stats().comm_time_s += comm_.clock().now_s() - before;
}

}  // namespace gtopk::collectives
