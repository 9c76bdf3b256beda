#include "analysis/verify.hpp"

#include <deque>
#include <map>
#include <tuple>

#include "comm/tags.hpp"

namespace gtopk::analysis {

namespace {

using collectives::CommOp;
using collectives::Schedule;
using collectives::kVariableBytes;

std::string op_str(const CommOp& op, int rank) {
    std::string s = op.kind == CommOp::Kind::Send ? "send" : "recv";
    s += " rank " + std::to_string(rank);
    s += (op.kind == CommOp::Kind::Send ? " -> " : " <- ") + std::to_string(op.peer);
    s += " tag+" + std::to_string(op.tag_offset);
    s += " round " + std::to_string(op.round);
    return s;
}

/// Checks that need no execution: shapes, peers, tag discipline, per-edge
/// tag uniqueness (FIFO-unambiguity).
void static_checks(const Schedule& sched, VerifyResult& out) {
    const int world = sched.world;
    if (world < 1) {
        out.violations.push_back({"well-formed", -1, "world < 1"});
        return;
    }
    if (static_cast<int>(sched.ranks.size()) != world) {
        out.violations.push_back(
            {"well-formed", -1,
             "rank program count " + std::to_string(sched.ranks.size()) +
                 " != world " + std::to_string(world)});
        return;
    }
    if (sched.tag_count < 0) {
        out.violations.push_back({"tag-range", -1, "negative tag_count"});
    }

    std::map<std::tuple<int, int, int>, int> edge_tag_sends;
    for (int rank = 0; rank < world; ++rank) {
        for (const CommOp& op : sched.rank_ops(rank)) {
            if (op.peer < 0 || op.peer >= world) {
                out.violations.push_back(
                    {"well-formed", rank, op_str(op, rank) + ": peer out of range"});
                continue;
            }
            if (op.peer == rank) {
                out.violations.push_back(
                    {"well-formed", rank, op_str(op, rank) + ": self-message"});
            }
            if (op.bytes < 0 && op.bytes != kVariableBytes) {
                out.violations.push_back(
                    {"well-formed", rank, op_str(op, rank) + ": negative bytes"});
            }
            if (op.b < op.a) {
                out.violations.push_back(
                    {"well-formed", rank, op_str(op, rank) + ": empty operand range"});
            }
            if (sched.absolute_tags) {
                // User-tag discipline: absolute tags must stay strictly
                // below the async band (comm/tags.hpp) or they would collide
                // with the collectives' tag blocks.
                if (op.tag_offset < 0 || op.tag_offset >= comm::kAsyncTagBase) {
                    out.violations.push_back(
                        {"tag-range", rank,
                         op_str(op, rank) + ": absolute tag " +
                             std::to_string(op.tag_offset) +
                             " outside [0, async base " +
                             std::to_string(comm::kAsyncTagBase) + ")"});
                }
            } else if (op.tag_offset < 0 || op.tag_offset >= sched.tag_count) {
                out.violations.push_back(
                    {"tag-range", rank,
                     op_str(op, rank) + ": tag offset outside the reserved block [0, " +
                         std::to_string(sched.tag_count) + ")"});
            }
            if (op.kind == CommOp::Kind::Send) {
                const int n = ++edge_tag_sends[{rank, op.peer, op.tag_offset}];
                if (n == 2) {
                    out.violations.push_back(
                        {"fifo", rank,
                         "tag " + std::to_string(op.tag_offset) + " sent twice on edge " +
                             std::to_string(rank) + " -> " + std::to_string(op.peer) +
                             "; matching would depend on FIFO arrival order"});
                }
            }
        }
    }
}

/// Execute concurrent schedules under Mailbox semantics, `parts[p]`'s tag
/// offsets rebased to `tag_bases[p]`: sends are eager and buffered, recvs
/// block until a matching (source, absolute tag) message is in flight, and
/// each rank round-robins every part's program (the AsyncCollective
/// executor's pump-all semantics — a recv blocked in one part never stalls
/// another part's ops on the same rank). One schedule is one part at base
/// 0. Detects deadlock (wait-for cycle), unmatched recvs and unconsumed
/// sends, and prices the alpha-beta clock (one per rank) as it goes. With
/// `name_parts` every violation names its part.
void simulate(std::span<const Schedule> parts, std::span<const int> tag_bases,
              const comm::NetworkModel* net, bool name_parts, VerifyResult& out) {
    const int world = parts[0].world;
    const auto part_name = [&](std::size_t p) {
        return name_parts ? "part " + std::to_string(p) + " (" + parts[p].proto + "): "
                          : std::string();
    };
    struct InFlight {
        std::int64_t bytes;
        double arrival_s;
        std::size_t part;
    };
    std::map<std::tuple<int, int, int>, std::deque<InFlight>> wire;  // absolute tags
    std::vector<std::vector<std::size_t>> pc(
        static_cast<std::size_t>(world), std::vector<std::size_t>(parts.size(), 0));
    std::vector<double> clock(static_cast<std::size_t>(world), 0.0);
    const bool time_exact = out.bytes_exact && net != nullptr;

    bool progress = true;
    while (progress) {
        progress = false;
        for (int rank = 0; rank < world; ++rank) {
            for (std::size_t p = 0; p < parts.size(); ++p) {
                const auto& ops = parts[p].rank_ops(rank);
                auto& i = pc[static_cast<std::size_t>(rank)][p];
                while (i < ops.size()) {
                    const CommOp& op = ops[i];
                    const int tag = tag_bases[p] + op.tag_offset;
                    if (op.kind == CommOp::Kind::Send) {
                        double arrival = 0.0;
                        if (time_exact) {
                            clock[static_cast<std::size_t>(rank)] +=
                                net->transfer_time_s(
                                    static_cast<std::uint64_t>(op.bytes));
                            arrival = clock[static_cast<std::size_t>(rank)];
                        }
                        wire[{rank, op.peer, tag}].push_back({op.bytes, arrival, p});
                        ++i;
                        progress = true;
                        continue;
                    }
                    auto it = wire.find({op.peer, rank, tag});
                    if (it == wire.end() || it->second.empty()) break;  // blocked
                    const InFlight msg = it->second.front();
                    it->second.pop_front();
                    if (time_exact) {
                        auto& c = clock[static_cast<std::size_t>(rank)];
                        c = std::max(c, msg.arrival_s);
                    }
                    ++i;
                    progress = true;
                }
            }
        }
    }

    // Stalled ranks: each blocked (rank, part) waits on exactly one (peer,
    // tag) of its own part. If the peer's remaining program in that part
    // still sends it, the wait is real (potential cycle); otherwise the
    // recv can never be satisfied. Parts share no tags, so every wait-for
    // cycle lies within one part.
    bool any_blocked = false;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const Schedule& sched = parts[p];
        std::vector<int> waits_on(static_cast<std::size_t>(world), -1);
        for (int rank = 0; rank < world; ++rank) {
            const auto& ops = sched.rank_ops(rank);
            const std::size_t i = pc[static_cast<std::size_t>(rank)][p];
            if (i >= ops.size()) continue;
            any_blocked = true;
            const CommOp& op = ops[i];
            bool peer_will_send = false;
            const auto& peer_ops = sched.rank_ops(op.peer);
            for (std::size_t j = pc[static_cast<std::size_t>(op.peer)][p];
                 j < peer_ops.size(); ++j) {
                const CommOp& q = peer_ops[j];
                if (q.kind == CommOp::Kind::Send && q.peer == rank &&
                    q.tag_offset == op.tag_offset) {
                    peer_will_send = true;
                    break;
                }
            }
            if (peer_will_send) {
                waits_on[static_cast<std::size_t>(rank)] = op.peer;
            } else {
                out.violations.push_back(
                    {"match", rank,
                     part_name(p) + op_str(op, rank) +
                         ": no matching send exists anywhere in the "
                         "schedule — recv can never complete"});
            }
        }
        // Walk the wait-for edges to name a cycle if one exists.
        std::vector<int> color(static_cast<std::size_t>(world), 0);
        for (int start = 0; start < world; ++start) {
            if (waits_on[static_cast<std::size_t>(start)] < 0) continue;
            int r = start;
            std::vector<int> path;
            while (r >= 0 && color[static_cast<std::size_t>(r)] == 0) {
                color[static_cast<std::size_t>(r)] = 1;
                path.push_back(r);
                r = waits_on[static_cast<std::size_t>(r)];
            }
            if (r >= 0 && color[static_cast<std::size_t>(r)] == 1) {
                std::string cycle;
                bool in_cycle = false;
                for (int node : path) {
                    if (node == r) in_cycle = true;
                    if (in_cycle) cycle += std::to_string(node) + " -> ";
                }
                cycle += std::to_string(r);
                out.violations.push_back(
                    {"deadlock", r, part_name(p) + "wait-for cycle: " + cycle});
            }
            for (int node : path) color[static_cast<std::size_t>(node)] = 2;
        }
    }
    if (any_blocked) {
        if (out.violations.empty()) {
            out.violations.push_back(
                {"deadlock", -1, "schedule stalled without completing"});
        }
        return;
    }

    // Everything ran to completion; any message still on the wire was sent
    // but never received.
    for (const auto& [key, queue] : wire) {
        if (queue.empty()) continue;
        const auto& [src, dst, tag] = key;
        const std::size_t p = queue.front().part;
        out.violations.push_back(
            {"match", src,
             part_name(p) + std::to_string(queue.size()) +
                 " unconsumed send(s) on edge " + std::to_string(src) + " -> " +
                 std::to_string(dst) + " tag+" + std::to_string(tag - tag_bases[p])});
    }

    if (time_exact && out.violations.empty()) {
        double cp = 0.0;
        for (double c : clock) cp = std::max(cp, c);
        out.critical_path_s = cp;
    }
}

/// Static checks, then per-rank and total traffic from the op programs.
VerifyResult inspect(const Schedule& sched) {
    VerifyResult out;
    static_checks(sched, out);
    if (!out.violations.empty()) return out;

    out.per_rank.resize(static_cast<std::size_t>(sched.world));
    for (int rank = 0; rank < sched.world; ++rank) {
        RankTraffic& t = out.per_rank[static_cast<std::size_t>(rank)];
        for (const CommOp& op : sched.rank_ops(rank)) {
            if (op.bytes == kVariableBytes) {
                t.bytes_exact = false;
                out.bytes_exact = false;
            }
            if (op.kind == CommOp::Kind::Send) {
                ++t.sends;
                ++out.total_messages;
                if (op.bytes != kVariableBytes) {
                    t.bytes_sent += op.bytes;
                    out.total_bytes += op.bytes;
                }
            } else {
                ++t.recvs;
            }
        }
    }
    return out;
}

}  // namespace

std::vector<Violation> verify_survivor_confinement(
    const Schedule& sched, std::span<const int> survivors) {
    std::vector<Violation> out;
    std::vector<bool> live(static_cast<std::size_t>(sched.world), false);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
        if (survivors[i] < 0 || survivors[i] >= sched.world) {
            out.push_back({"confinement", -1,
                           "survivor " + std::to_string(survivors[i]) +
                               " outside world " + std::to_string(sched.world)});
            return out;
        }
        if (i > 0 && survivors[i] <= survivors[i - 1]) {
            out.push_back({"confinement", -1, "survivors not sorted unique"});
            return out;
        }
        live[static_cast<std::size_t>(survivors[i])] = true;
    }
    for (int rank = 0; rank < sched.world; ++rank) {
        const auto& ops = sched.rank_ops(rank);
        if (!live[static_cast<std::size_t>(rank)]) {
            if (!ops.empty()) {
                out.push_back({"confinement", rank,
                               "dead rank " + std::to_string(rank) + " has " +
                                   std::to_string(ops.size()) +
                                   " op(s) in its program"});
            }
            continue;
        }
        for (const CommOp& op : ops) {
            if (op.peer >= 0 && op.peer < sched.world &&
                !live[static_cast<std::size_t>(op.peer)]) {
                out.push_back({"confinement", rank,
                               op_str(op, rank) + ": peer " +
                                   std::to_string(op.peer) +
                                   " is not a survivor"});
            }
        }
    }
    return out;
}

VerifyResult verify_concurrent_schedules(std::span<const Schedule> parts,
                                         std::span<const int> tag_bases,
                                         const comm::NetworkModel* net) {
    VerifyResult out;
    if (parts.size() != tag_bases.size()) {
        out.violations.push_back(
            {"well-formed", -1,
             "parts (" + std::to_string(parts.size()) + ") / tag_bases (" +
                 std::to_string(tag_bases.size()) + ") size mismatch"});
        return out;
    }
    if (parts.empty()) return out;

    const int world = parts[0].world;
    out.per_rank.resize(static_cast<std::size_t>(world));
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const Schedule& s = parts[p];
        const std::string part_name = "part " + std::to_string(p) + " (" + s.proto + ")";
        if (s.world != world) {
            out.violations.push_back(
                {"well-formed", -1,
                 part_name + ": world " + std::to_string(s.world) +
                     " != part 0 world " + std::to_string(world)});
            return out;
        }
        if (s.absolute_tags) {
            out.violations.push_back(
                {"band-overlap", -1,
                 part_name + " uses absolute tags; it cannot ride an async band"});
        }
        if (tag_bases[p] < comm::kAsyncTagBase) {
            out.violations.push_back(
                {"band-overlap", -1,
                 part_name + ": band base " + std::to_string(tag_bases[p]) +
                     " below the async band — collides with user tags"});
        }
        VerifyResult part = inspect(s);
        for (Violation& v : part.violations) {
            v.detail = part_name + ": " + v.detail;
            out.violations.push_back(std::move(v));
        }
        if (!part.bytes_exact) out.bytes_exact = false;
        out.total_messages += part.total_messages;
        out.total_bytes += part.total_bytes;
        for (std::size_t r = 0; r < part.per_rank.size(); ++r) {
            RankTraffic& t = out.per_rank[r];
            t.sends += part.per_rank[r].sends;
            t.recvs += part.per_rank[r].recvs;
            t.bytes_sent += part.per_rank[r].bytes_sent;
            t.bytes_exact = t.bytes_exact && part.per_rank[r].bytes_exact;
        }
    }
    // Pairwise band disjointness — THE overlapped-run tag invariant.
    for (std::size_t i = 0; i < parts.size(); ++i) {
        for (std::size_t j = i + 1; j < parts.size(); ++j) {
            const long long ai = tag_bases[i], bi = ai + parts[i].tag_count;
            const long long aj = tag_bases[j], bj = aj + parts[j].tag_count;
            if (ai < bj && aj < bi) {
                out.violations.push_back(
                    {"band-overlap", -1,
                     "parts " + std::to_string(i) + " and " + std::to_string(j) +
                         " share tags: bands [" + std::to_string(ai) + ", " +
                         std::to_string(bi) + ") and [" + std::to_string(aj) +
                         ", " + std::to_string(bj) + ") intersect"});
            }
        }
    }
    if (!out.violations.empty()) return out;

    // Cross-part FIFO-unambiguity on ABSOLUTE tags (belt and braces over
    // band disjointness: catches a part whose offsets escape its band).
    std::map<std::tuple<int, int, int>, std::size_t> abs_senders;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        for (int rank = 0; rank < world; ++rank) {
            for (const CommOp& op : parts[p].rank_ops(rank)) {
                if (op.kind != CommOp::Kind::Send) continue;
                const int abs_tag = tag_bases[p] + op.tag_offset;
                auto [it, fresh] =
                    abs_senders.insert({{rank, op.peer, abs_tag}, p});
                if (!fresh) {
                    out.violations.push_back(
                        {"fifo", rank,
                         "absolute tag " + std::to_string(abs_tag) +
                             " sent on edge " + std::to_string(rank) + " -> " +
                             std::to_string(op.peer) + " by parts " +
                             std::to_string(it->second) + " and " +
                             std::to_string(p)});
                }
            }
        }
    }
    if (!out.violations.empty()) return out;

    simulate(parts, tag_bases, net, /*name_parts=*/true, out);
    return out;
}

VerifyResult verify_schedule(const Schedule& sched, const comm::NetworkModel* net) {
    VerifyResult out = inspect(sched);
    if (!out.violations.empty()) return out;
    const int base = 0;
    simulate(std::span<const Schedule>(&sched, 1), std::span<const int>(&base, 1), net,
             /*name_parts=*/false, out);
    return out;
}

}  // namespace gtopk::analysis
