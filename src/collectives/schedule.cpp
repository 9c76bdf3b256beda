#include "collectives/schedule.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "comm/tags.hpp"

namespace gtopk::collectives {

int ilog2_floor(int x) {
    assert(x >= 1);
    int l = 0;
    while (x > 1) {
        x >>= 1;
        ++l;
    }
    return l;
}

int ilog2_ceil(int x) {
    assert(x >= 1);
    int l = ilog2_floor(x);
    return (1 << l) == x ? l : l + 1;
}

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

DisseminationStep dissemination_step(int rank, int round, int world) {
    const int d = 1 << round;
    DisseminationStep s;
    s.send_to = (rank + d) % world;
    s.recv_from = (rank - d % world + world) % world;
    return s;
}

BinomialBcastPlan binomial_bcast_plan(int rank, int root, int world) {
    if (world <= 0) throw std::invalid_argument("world must be positive");
    // Work in the rotated space where root is rank 0.
    const int vrank = (rank - root + world) % world;
    const int rounds = ilog2_ceil(world);
    BinomialBcastPlan plan;
    if (vrank != 0) {
        // The receive round is the position of vrank's highest set bit:
        // rank v receives from v - 2^h at round h where 2^h <= v < 2^(h+1).
        int h = ilog2_floor(vrank);
        plan.recv_round = h;
        plan.recv_from = ((vrank - (1 << h)) + root) % world;
    }
    // After holding the data, send to vrank + 2^r for each later round r
    // while the destination is in range.
    const int first_active = (vrank == 0) ? 0 : plan.recv_round + 1;
    for (int r = first_active; r < rounds; ++r) {
        const int vdst = vrank + (1 << r);
        if (vdst < world) {
            plan.sends.emplace_back(r, (vdst + root) % world);
        }
    }
    return plan;
}

RingStep ring_neighbors(int rank, int world) {
    RingStep s;
    s.send_to = (rank + 1) % world;
    s.recv_from = (rank - 1 + world) % world;
    return s;
}

std::vector<std::size_t> ring_block_offsets(std::size_t n, int world) {
    // First (n % world) blocks get one extra element, like MPI block
    // decompositions; empty blocks are fine (n < world).
    std::vector<std::size_t> offsets(static_cast<std::size_t>(world) + 1, 0);
    const std::size_t base = n / static_cast<std::size_t>(world);
    const std::size_t extra = n % static_cast<std::size_t>(world);
    for (int b = 0; b < world; ++b) {
        const std::size_t len = base + (static_cast<std::size_t>(b) < extra ? 1 : 0);
        offsets[static_cast<std::size_t>(b) + 1] = offsets[static_cast<std::size_t>(b)] + len;
    }
    return offsets;
}

TreeMergeStep tree_merge_step(int rank, int round, int world) {
    if (!is_power_of_two(world)) {
        throw std::invalid_argument("tree_merge_step requires power-of-two world");
    }
    TreeMergeStep s;
    const int stride = 1 << round;
    if (rank % stride != 0) return s;  // already folded in an earlier round
    const int pos = rank >> round;
    if (pos % 2 == 0) {
        const int peer = rank + stride;
        if (peer < world) {
            s.role = TreeMergeStep::Role::Receive;
            s.peer = peer;
        }
    } else {
        s.role = TreeMergeStep::Role::Send;
        s.peer = rank - stride;
    }
    return s;
}

int tree_merge_rounds(int world) { return ilog2_ceil(world); }

// ---------------------------------------------------------------------------
// Schedule IR generators
// ---------------------------------------------------------------------------

namespace {

using Kind = CommOp::Kind;

Schedule make_schedule(std::string proto, int world, int tag_count) {
    if (world <= 0) throw std::invalid_argument("world must be positive");
    Schedule s;
    s.proto = std::move(proto);
    s.world = world;
    s.tag_count = tag_count;
    s.ranks.resize(static_cast<std::size_t>(world));
    return s;
}

void push_op(Schedule& s, int rank, Kind kind, int peer, int tag_offset, int round,
             int phase, std::int64_t bytes, std::int64_t a = 0, std::int64_t b = 0) {
    CommOp op;
    op.kind = kind;
    op.peer = peer;
    op.tag_offset = tag_offset;
    op.round = round;
    op.phase = phase;
    op.bytes = bytes;
    op.a = a;
    op.b = b;
    s.ranks[static_cast<std::size_t>(rank)].push_back(op);
}

/// elems * elem_bytes, propagating the variable marker.
std::int64_t sized(std::int64_t elems, std::int64_t elem_bytes) {
    if (elems == kVariableBytes || elem_bytes == kVariableBytes) return kVariableBytes;
    return elems * elem_bytes;
}

}  // namespace

Schedule barrier_schedule(int world) {
    if (world == 1) return make_schedule("barrier", world, 0);
    const int rounds = ilog2_ceil(world);
    Schedule s = make_schedule("barrier", world, rounds);
    for (int rank = 0; rank < world; ++rank) {
        for (int r = 0; r < rounds; ++r) {
            const DisseminationStep step = dissemination_step(rank, r, world);
            push_op(s, rank, Kind::Send, step.send_to, r, r, 0, 1);
            push_op(s, rank, Kind::Recv, step.recv_from, r, r, 0, 1);
        }
    }
    return s;
}

Schedule broadcast_schedule(int world, int root, std::int64_t bytes, BcastAlgo algo) {
    if (root < 0 || root >= world) throw std::invalid_argument("broadcast: bad root");
    if (world == 1) {
        return make_schedule(
            algo == BcastAlgo::FlatTree ? "broadcast.flat" : "broadcast.binomial",
            world, 0);
    }
    if (algo == BcastAlgo::FlatTree) {
        Schedule s = make_schedule("broadcast.flat", world, 1);
        for (int dst = 0; dst < world; ++dst) {
            if (dst == root) continue;
            push_op(s, root, Kind::Send, dst, 0, 0, 0, bytes);
            push_op(s, dst, Kind::Recv, root, 0, 0, 0, bytes);
        }
        return s;
    }
    const int rounds = ilog2_ceil(world);
    Schedule s = make_schedule("broadcast.binomial", world, rounds);
    for (int rank = 0; rank < world; ++rank) {
        const BinomialBcastPlan plan = binomial_bcast_plan(rank, root, world);
        if (plan.recv_round >= 0) {
            push_op(s, rank, Kind::Recv, plan.recv_from, plan.recv_round,
                    plan.recv_round, 0, bytes);
        }
        for (const auto& [round, dst] : plan.sends) {
            push_op(s, rank, Kind::Send, dst, round, round, 0, bytes);
        }
    }
    return s;
}

Schedule reduce_schedule(int world, int root, std::int64_t bytes) {
    if (root < 0 || root >= world) throw std::invalid_argument("reduce: bad root");
    if (world == 1) return make_schedule("reduce.binomial", world, 0);
    const int rounds = ilog2_ceil(world);
    Schedule s = make_schedule("reduce.binomial", world, rounds);
    // The broadcast tree run backwards in the rotated space where root is 0:
    // at round r, virtual ranks with bit r set ship their accumulator to
    // vrank - 2^r and drop out.
    for (int rank = 0; rank < world; ++rank) {
        const int vrank = (rank - root + world) % world;
        for (int r = 0; r < rounds; ++r) {
            const int bit = 1 << r;
            if (vrank & bit) {
                const int vdst = vrank - bit;
                push_op(s, rank, Kind::Send, (vdst + root) % world, r, r, 0, bytes);
                break;  // this rank's contribution has been handed off
            }
            const int vsrc = vrank + bit;
            if (vsrc < world && (vrank & (bit - 1)) == 0) {
                push_op(s, rank, Kind::Recv, (vsrc + root) % world, r, r, 0, bytes);
            }
        }
    }
    return s;
}

Schedule allreduce_ring_schedule(int world, std::int64_t elems,
                                 std::int64_t elem_bytes) {
    if (elems < 0) throw std::invalid_argument("allreduce_ring: negative size");
    if (world == 1) return make_schedule("allreduce.ring", world, 0);
    const int steps = world - 1;
    Schedule s = make_schedule("allreduce.ring", world, 2 * steps);
    const auto offsets = ring_block_offsets(static_cast<std::size_t>(elems), world);
    auto block_lo = [&](int b) {
        b = ((b % world) + world) % world;
        return static_cast<std::int64_t>(offsets[static_cast<std::size_t>(b)]);
    };
    auto block_hi = [&](int b) {
        b = ((b % world) + world) % world;
        return static_cast<std::int64_t>(offsets[static_cast<std::size_t>(b) + 1]);
    };
    for (int rank = 0; rank < world; ++rank) {
        const RingStep ring = ring_neighbors(rank, world);
        // Phase 0 — reduce-scatter: recv combiner adds into [a, b).
        for (int st = 0; st < steps; ++st) {
            const int send_block = rank - st;
            const int recv_block = rank - st - 1;
            push_op(s, rank, Kind::Send, ring.send_to, st, st, 0,
                    sized(block_hi(send_block) - block_lo(send_block), elem_bytes),
                    block_lo(send_block), block_hi(send_block));
            push_op(s, rank, Kind::Recv, ring.recv_from, st, st, 0,
                    sized(block_hi(recv_block) - block_lo(recv_block), elem_bytes),
                    block_lo(recv_block), block_hi(recv_block));
        }
        // Phase 1 — allgather: recv combiner copies into [a, b).
        for (int st = 0; st < steps; ++st) {
            const int send_block = rank + 1 - st;
            const int recv_block = rank - st;
            push_op(s, rank, Kind::Send, ring.send_to, steps + st, st, 1,
                    sized(block_hi(send_block) - block_lo(send_block), elem_bytes),
                    block_lo(send_block), block_hi(send_block));
            push_op(s, rank, Kind::Recv, ring.recv_from, steps + st, st, 1,
                    sized(block_hi(recv_block) - block_lo(recv_block), elem_bytes),
                    block_lo(recv_block), block_hi(recv_block));
        }
    }
    return s;
}

Schedule allreduce_recursive_doubling_schedule(int world, std::int64_t elems,
                                               std::int64_t elem_bytes) {
    if (world == 1) return make_schedule("allreduce.recursive_doubling", world, 0);
    if (!is_power_of_two(world)) {
        throw std::invalid_argument("recursive doubling requires power-of-two world");
    }
    const int rounds = ilog2_floor(world);
    Schedule s = make_schedule("allreduce.recursive_doubling", world, rounds);
    for (int rank = 0; rank < world; ++rank) {
        for (int r = 0; r < rounds; ++r) {
            const int peer = rank ^ (1 << r);
            push_op(s, rank, Kind::Send, peer, r, r, 0, sized(elems, elem_bytes), 0,
                    elems);
            push_op(s, rank, Kind::Recv, peer, r, r, 0, sized(elems, elem_bytes), 0,
                    elems);
        }
    }
    return s;
}

Schedule allreduce_rabenseifner_schedule(int world, std::int64_t elems,
                                         std::int64_t elem_bytes) {
    if (world == 1) return make_schedule("allreduce.rabenseifner", world, 0);
    if (!is_power_of_two(world)) {
        throw std::invalid_argument("rabenseifner requires power-of-two world");
    }
    if (elems < 0 || elems % world != 0) {
        throw std::invalid_argument("rabenseifner requires m divisible by P");
    }
    const int rounds = ilog2_floor(world);
    Schedule s = make_schedule("allreduce.rabenseifner", world, 2 * rounds);
    for (int rank = 0; rank < world; ++rank) {
        // Phase 0 — reduce-scatter by recursive halving: the owned window
        // [lo, hi) halves each round; the partner's half ships out and the
        // kept half absorbs the partner's data.
        std::int64_t lo = 0, hi = elems;
        for (int r = 0; r < rounds; ++r) {
            const int bit = 1 << (rounds - 1 - r);
            const int peer = rank ^ bit;
            const std::int64_t mid = lo + (hi - lo) / 2;
            const bool keep_lower = (rank & bit) == 0;
            const std::int64_t send_lo = keep_lower ? mid : lo;
            const std::int64_t send_hi = keep_lower ? hi : mid;
            push_op(s, rank, Kind::Send, peer, r, r, 0,
                    sized(send_hi - send_lo, elem_bytes), send_lo, send_hi);
            if (keep_lower) {
                hi = mid;
            } else {
                lo = mid;
            }
            push_op(s, rank, Kind::Recv, peer, r, r, 0, sized(hi - lo, elem_bytes),
                    lo, hi);
        }
        // Phase 1 — allgather by recursive doubling: windows merge back in
        // reverse order, each exchange doubling the owned range.
        for (int r = rounds - 1; r >= 0; --r) {
            const int bit = 1 << (rounds - 1 - r);
            const int peer = rank ^ bit;
            const std::int64_t len = hi - lo;
            push_op(s, rank, Kind::Send, peer, rounds + r, r, 1,
                    sized(len, elem_bytes), lo, hi);
            if ((rank & bit) == 0) {
                // Peer owned the upper sibling window.
                push_op(s, rank, Kind::Recv, peer, rounds + r, r, 1,
                        sized(len, elem_bytes), hi, hi + len);
                hi += len;
            } else {
                push_op(s, rank, Kind::Recv, peer, rounds + r, r, 1,
                        sized(len, elem_bytes), lo - len, lo);
                lo -= len;
            }
        }
    }
    return s;
}

Schedule allgather_schedule(int world, std::int64_t elems_per_rank,
                            std::int64_t elem_bytes, AllgatherAlgo algo) {
    if (elems_per_rank < 0) throw std::invalid_argument("allgather: negative size");
    if (world == 1) {
        return make_schedule(algo == AllgatherAlgo::RecursiveDoubling
                                 ? "allgather.recursive_doubling"
                                 : "allgather.ring",
                             world, 0);
    }
    const std::int64_t n = elems_per_rank;
    if (algo == AllgatherAlgo::RecursiveDoubling && is_power_of_two(world)) {
        const int rounds = ilog2_floor(world);
        Schedule s = make_schedule("allgather.recursive_doubling", world, rounds);
        for (int rank = 0; rank < world; ++rank) {
            for (int r = 0; r < rounds; ++r) {
                const int width = 1 << r;
                const int peer = rank ^ width;
                const int my_base = rank & ~(width - 1);
                const int peer_base = peer & ~(width - 1);
                push_op(s, rank, Kind::Send, peer, r, r, 0,
                        sized(n * width, elem_bytes), n * my_base,
                        n * (my_base + width));
                push_op(s, rank, Kind::Recv, peer, r, r, 0,
                        sized(n * width, elem_bytes), n * peer_base,
                        n * (peer_base + width));
            }
        }
        return s;
    }
    const int steps = world - 1;
    Schedule s = make_schedule("allgather.ring", world, steps);
    for (int rank = 0; rank < world; ++rank) {
        const RingStep ring = ring_neighbors(rank, world);
        for (int st = 0; st < steps; ++st) {
            const int send_block = (rank - st + world) % world;
            const int recv_block = (rank - st - 1 + world) % world;
            push_op(s, rank, Kind::Send, ring.send_to, st, st, 0,
                    sized(n, elem_bytes), n * send_block, n * (send_block + 1));
            push_op(s, rank, Kind::Recv, ring.recv_from, st, st, 0,
                    sized(n, elem_bytes), n * recv_block, n * (recv_block + 1));
        }
    }
    return s;
}

Schedule allgatherv_schedule(int world, std::span<const std::int64_t> bytes_per_rank) {
    if (!bytes_per_rank.empty() &&
        bytes_per_rank.size() != static_cast<std::size_t>(world)) {
        throw std::invalid_argument("allgatherv: bytes_per_rank size mismatch");
    }
    if (world == 1) return make_schedule("allgatherv.ring", world, 0);
    auto block_bytes = [&](int b) {
        return bytes_per_rank.empty() ? kVariableBytes
                                      : bytes_per_rank[static_cast<std::size_t>(b)];
    };
    const int steps = world - 1;
    Schedule s = make_schedule("allgatherv.ring", world, steps);
    for (int rank = 0; rank < world; ++rank) {
        const RingStep ring = ring_neighbors(rank, world);
        for (int st = 0; st < steps; ++st) {
            const int send_block = (rank - st + world) % world;
            const int recv_block = (rank - st - 1 + world) % world;
            push_op(s, rank, Kind::Send, ring.send_to, st, st, 0,
                    block_bytes(send_block), send_block, send_block + 1);
            push_op(s, rank, Kind::Recv, ring.recv_from, st, st, 0,
                    block_bytes(recv_block), recv_block, recv_block + 1);
        }
    }
    return s;
}

Schedule telemetry_allgather_schedule(int world, std::int64_t stats_bytes) {
    if (stats_bytes <= 0) {
        throw std::invalid_argument("telemetry: stats_bytes must be positive");
    }
    if (world - 1 > comm::kTagTelemetryCount) {
        throw std::invalid_argument(
            "telemetry: world exceeds the reserved telemetry tag band");
    }
    Schedule s = make_schedule("telemetry.allgather", world, 0);
    s.absolute_tags = true;
    if (world == 1) return s;
    const int steps = world - 1;
    for (int rank = 0; rank < world; ++rank) {
        const RingStep ring = ring_neighbors(rank, world);
        for (int st = 0; st < steps; ++st) {
            const int send_block = (rank - st + world) % world;
            const int recv_block = (rank - st - 1 + world) % world;
            const int tag = comm::kTagTelemetryBase + st;
            push_op(s, rank, Kind::Send, ring.send_to, tag, st, 0, stats_bytes,
                    send_block, send_block + 1);
            push_op(s, rank, Kind::Recv, ring.recv_from, tag, st, 0, stats_bytes,
                    recv_block, recv_block + 1);
        }
    }
    return s;
}

Schedule gather_schedule(int world, int root, std::int64_t bytes) {
    if (root < 0 || root >= world) throw std::invalid_argument("gather: bad root");
    // NOTE: unlike the other collectives, the gather implementation reserves
    // its tag even for world == 1 (it has no early return), so the schedule
    // must account for the block to keep tag replay exact.
    Schedule s = make_schedule("gather.flat", world, 1);
    for (int src = 0; src < world; ++src) {
        if (src == root) continue;
        push_op(s, src, Kind::Send, root, 0, 0, 0, bytes, src, src + 1);
        push_op(s, root, Kind::Recv, src, 0, 0, 0, bytes, src, src + 1);
    }
    return s;
}

int gtopk_merge_tag_count(int world) {
    return world == 1 ? 0 : 1 + tree_merge_rounds(1 << ilog2_floor(world));
}

Schedule gtopk_merge_schedule(int world, std::int64_t wire_bytes) {
    if (world == 1) return make_schedule("gtopk.merge", world, 0);
    const int base = 1 << ilog2_floor(world);
    const int rounds = tree_merge_rounds(base);
    // Tag block: offset 0 is the fold tag, offsets 1..rounds the tree
    // rounds — one contiguous block of the handle's tag band.
    Schedule s = make_schedule("gtopk.merge", world, gtopk_merge_tag_count(world));
    // Phase 0 — fold ranks beyond the power-of-two base into the base.
    for (int rank = base; rank < world; ++rank) {
        push_op(s, rank, Kind::Send, rank - base, 0, 0, 0, wire_bytes);
        push_op(s, rank - base, Kind::Recv, rank, 0, 0, 0, wire_bytes);
    }
    // Phase 1 — the distance-doubling tree of Fig. 4 over the base ranks.
    for (int rank = 0; rank < base; ++rank) {
        for (int r = 0; r < rounds; ++r) {
            const TreeMergeStep step = tree_merge_step(rank, r, base);
            if (step.role == TreeMergeStep::Role::Send) {
                push_op(s, rank, Kind::Send, step.peer, 1 + r, r, 1, wire_bytes);
                break;  // folded in; this rank waits for the broadcast
            }
            if (step.role == TreeMergeStep::Role::Receive) {
                push_op(s, rank, Kind::Recv, step.peer, 1 + r, r, 1, wire_bytes);
            }
        }
    }
    return s;
}

Schedule gtopk_allreduce_schedule(int world, std::int64_t wire_bytes,
                                  BcastAlgo bcast) {
    const Schedule parts[] = {gtopk_merge_schedule(world, wire_bytes),
                              broadcast_schedule(world, /*root=*/0, wire_bytes, bcast)};
    return concat_schedules("gtopk.allreduce", parts);
}

Schedule concat_schedules(std::string proto, std::span<const Schedule> parts) {
    if (parts.empty()) throw std::invalid_argument("concat_schedules: no parts");
    Schedule out = make_schedule(std::move(proto), parts[0].world, 0);
    for (const Schedule& part : parts) {
        if (part.world != out.world) {
            throw std::invalid_argument("concat_schedules: world mismatch");
        }
        if (part.absolute_tags) {
            throw std::invalid_argument("concat_schedules: absolute-tag part");
        }
        for (int rank = 0; rank < out.world; ++rank) {
            for (CommOp op : part.rank_ops(rank)) {
                op.tag_offset += out.tag_count;
                out.ranks[static_cast<std::size_t>(rank)].push_back(op);
            }
        }
        out.tag_count += part.tag_count;
    }
    return out;
}

Schedule remap_schedule(const Schedule& sched, std::span<const int> survivors,
                        int physical_world) {
    if (sched.world != static_cast<int>(survivors.size())) {
        throw std::invalid_argument(
            "remap_schedule: schedule world != survivor count");
    }
    for (std::size_t i = 0; i < survivors.size(); ++i) {
        if (survivors[i] < 0 || survivors[i] >= physical_world) {
            throw std::invalid_argument("remap_schedule: survivor outside world");
        }
        if (i > 0 && survivors[i] <= survivors[i - 1]) {
            throw std::invalid_argument(
                "remap_schedule: survivors must be sorted unique");
        }
    }
    Schedule out = make_schedule(sched.proto + ".remap", physical_world,
                                 sched.tag_count);
    out.absolute_tags = sched.absolute_tags;
    for (int logical = 0; logical < sched.world; ++logical) {
        const int phys = survivors[static_cast<std::size_t>(logical)];
        auto& program = out.ranks[static_cast<std::size_t>(phys)];
        for (CommOp op : sched.rank_ops(logical)) {
            // Same guard as verify_survivor_confinement: a default-initialized
            // peer (-1) would otherwise index out of bounds after the cast.
            if (op.peer < 0 || op.peer >= sched.world) {
                throw std::invalid_argument(
                    "remap_schedule: op peer outside schedule world");
            }
            op.peer = survivors[static_cast<std::size_t>(op.peer)];
            program.push_back(op);
        }
    }
    return out;
}

}  // namespace gtopk::collectives
