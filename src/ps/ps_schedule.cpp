#include "ps/ps_schedule.hpp"

#include <stdexcept>

#include "comm/tags.hpp"

namespace gtopk::ps {

using collectives::CommOp;
using collectives::Schedule;

Schedule ps_iteration_schedule(int workers, std::int64_t push_bytes,
                               std::int64_t pull_bytes) {
    if (workers < 1) throw std::invalid_argument("ps schedule: need >= 1 worker");
    Schedule s;
    s.proto = "ps.iteration";
    s.world = workers + 1;
    s.tag_count = 0;
    s.absolute_tags = true;
    s.ranks.resize(static_cast<std::size_t>(s.world));

    auto push_op = [](CommOp::Kind kind, int peer, int tag, int round, int phase,
                      std::int64_t bytes, std::int64_t worker_id) {
        CommOp op;
        op.kind = kind;
        op.peer = peer;
        op.tag_offset = tag;
        op.round = round;
        op.phase = phase;
        op.bytes = bytes;
        op.a = worker_id;
        op.b = worker_id + 1;
        return op;
    };

    for (int w = 1; w <= workers; ++w) {
        // Phase 0 — push: worker w sends, the server receives in ascending
        // worker order (the trainer's blocking per-worker recv loop).
        s.ranks[static_cast<std::size_t>(w)].push_back(
            push_op(CommOp::Kind::Send, 0, comm::kTagPsPush, 0, 0, push_bytes, w - 1));
        s.ranks[0].push_back(
            push_op(CommOp::Kind::Recv, w, comm::kTagPsPush, 0, 0, push_bytes, w - 1));
    }
    for (int w = 1; w <= workers; ++w) {
        // Phase 1 — pull: the server answers every worker, ascending.
        s.ranks[0].push_back(
            push_op(CommOp::Kind::Send, w, comm::kTagPsPull, 1, 1, pull_bytes, w - 1));
        s.ranks[static_cast<std::size_t>(w)].push_back(
            push_op(CommOp::Kind::Recv, 0, comm::kTagPsPull, 1, 1, pull_bytes, w - 1));
    }
    return s;
}

}  // namespace gtopk::ps
