// Pure schedule computations for the collectives: who talks to whom at each
// round. Factored out of the templated algorithms so they can be unit-tested
// exhaustively (every rank, every round, every world size) without running
// threads.
//
// Two layers live here:
//
//  1. Per-step helpers (dissemination_step, binomial_bcast_plan, ...) — the
//     original pairing primitives.
//  2. The Schedule IR: each protocol emits its COMPLETE communication
//     schedule as per-rank programs of ordered send/recv ops
//     (round, peer, tag offset, payload bytes, element range). The live
//     templated implementations in collectives.hpp, core/async_gtopk.cpp
//     and ps/ps_trainer.cpp execute exactly these programs, and the static
//     model checker in src/analysis/ verifies the same programs — so the
//     analyzed spec cannot drift from the running code by construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gtopk::collectives {

/// floor(log2(x)) for x >= 1.
int ilog2_floor(int x);

/// ceil(log2(x)) for x >= 1 (0 for x == 1).
int ilog2_ceil(int x);

bool is_power_of_two(int x);

/// Dissemination-barrier peer: at round r, rank sends to
/// (rank + 2^r) mod P and receives from (rank - 2^r) mod P.
struct DisseminationStep {
    int send_to;
    int recv_from;
};
DisseminationStep dissemination_step(int rank, int round, int world);

/// Binomial-tree broadcast relative to `root`. Returns for `rank` the list
/// of rounds in which it acts; parent is who it receives from (or -1 if it
/// already holds the data at that round's start).
struct BinomialBcastPlan {
    int recv_round = -1;   // round at which this rank receives (-1 for root)
    int recv_from = -1;    // source rank (-1 for root)
    std::vector<std::pair<int, int>> sends;  // (round, destination)
};
BinomialBcastPlan binomial_bcast_plan(int rank, int root, int world);

/// Ring neighbors.
struct RingStep {
    int send_to;
    int recv_from;
};
RingStep ring_neighbors(int rank, int world);

/// Block boundaries used by ring reduce-scatter/allgather for `n` elements
/// split across `world` blocks: block b covers [offsets[b], offsets[b+1]).
std::vector<std::size_t> ring_block_offsets(std::size_t n, int world);

/// gTop-k tree-merge schedule (the distance-doubling pairing of the paper's
/// Fig. 4): at round r (0-based), ranks that are multiples of 2^r pair up;
/// the one whose (rank >> r) is odd sends to rank - 2^r and goes idle; the
/// even one receives from rank + 2^r. Throws std::invalid_argument unless
/// `world` is a power of two (callers fold excess ranks first).
struct TreeMergeStep {
    enum class Role { Receive, Send, Idle };
    Role role = Role::Idle;
    int peer = -1;
};
TreeMergeStep tree_merge_step(int rank, int round, int world);

/// Number of rounds in the tree merge: ceil(log2(world)).
int tree_merge_rounds(int world);

// ---------------------------------------------------------------------------
// Schedule IR
// ---------------------------------------------------------------------------

enum class BcastAlgo { BinomialTree, FlatTree };
enum class AllgatherAlgo { RecursiveDoubling, Ring };
enum class AllreduceAlgo { Ring, RecursiveDoubling, Rabenseifner };

/// Payload size marker for ops whose byte count is data-dependent (sparse
/// wire payloads whose nnz the schedule cannot know). Such ops still pin
/// peers, tags and ordering; only the byte assertion is waived.
inline constexpr std::int64_t kVariableBytes = -1;

/// One point-to-point operation in a rank's program. Ops execute in program
/// order; sends are buffered (never block), recvs block until matched under
/// per-(source, tag) FIFO semantics — the Mailbox's guarantee.
struct CommOp {
    enum class Kind : std::uint8_t { Send, Recv };
    Kind kind = Kind::Send;
    /// Destination (Send) or source (Recv) rank.
    int peer = -1;
    /// Tag relative to the collective's fresh_async_tags block base
    /// (absolute tag when Schedule::absolute_tags is set, e.g. the PS user
    /// tags).
    int tag_offset = 0;
    /// Schedule round, for reporting and trace attribution.
    int round = 0;
    /// Protocol phase (e.g. 0 = reduce-scatter, 1 = allgather). Executors
    /// branch on it to pick the recv combiner (add vs copy).
    int phase = 0;
    /// Exact payload bytes, or kVariableBytes for data-dependent payloads.
    std::int64_t bytes = kVariableBytes;
    /// Protocol operands: the element range [a, b) of the caller's buffer
    /// this op touches (block protocols), or the block index `a` with
    /// b = a + 1 (allgatherv, whose element offsets are size-dependent).
    /// Executors address payloads exclusively through these, so the
    /// generator — not the implementation — decides what moves where.
    std::int64_t a = 0;
    std::int64_t b = 0;
};

/// A full collective schedule: one ordered op program per rank plus the
/// size of the async-band tag block the collective consumes.
struct Schedule {
    std::string proto;
    int world = 1;
    /// Number of tags the collective reserves (0 for world == 1, where
    /// implementations return before touching the communicator).
    int tag_count = 0;
    /// When set, CommOp::tag_offset holds absolute user tags (below
    /// kAsyncTagBase) instead of offsets into a tag block — the PS
    /// protocol.
    bool absolute_tags = false;
    std::vector<std::vector<CommOp>> ranks;  // index == rank

    const std::vector<CommOp>& rank_ops(int rank) const {
        return ranks[static_cast<std::size_t>(rank)];
    }
};

/// Dissemination barrier: ceil(log2 P) rounds of 1-byte tokens.
Schedule barrier_schedule(int world);

/// Broadcast of `bytes` payload bytes from `root`. `bytes` is metadata only
/// (control structure is size-independent); pass kVariableBytes when the
/// size is not known at the call site (non-root ranks).
Schedule broadcast_schedule(int world, int root, std::int64_t bytes,
                            BcastAlgo algo = BcastAlgo::BinomialTree);

/// Binomial-tree sum-reduction of `bytes` payload bytes to `root`.
Schedule reduce_schedule(int world, int root, std::int64_t bytes);

/// Ring allreduce of `elems` elements of `elem_bytes` each: phase 0 is the
/// reduce-scatter (recv combiner: add), phase 1 the allgather (copy).
/// Op [a, b) ranges are element offsets into the caller's buffer.
Schedule allreduce_ring_schedule(int world, std::int64_t elems,
                                 std::int64_t elem_bytes);

/// Recursive-doubling allreduce (power-of-two world) of `elems` elements.
Schedule allreduce_recursive_doubling_schedule(int world, std::int64_t elems,
                                               std::int64_t elem_bytes);

/// Rabenseifner allreduce (power-of-two world, elems divisible by world):
/// phase 0 recursive-halving reduce-scatter (recv combiner: add into
/// [a, b)), phase 1 recursive-doubling allgather (copy into [a, b)).
Schedule allreduce_rabenseifner_schedule(int world, std::int64_t elems,
                                         std::int64_t elem_bytes);

/// Allgather with `elems_per_rank` elements contributed per rank. Mirrors
/// the implementation's fallback: RecursiveDoubling on non-power-of-two
/// worlds degrades to the ring. [a, b) ranges are element offsets into the
/// size P*elems_per_rank output buffer.
Schedule allgather_schedule(int world, std::int64_t elems_per_rank,
                            std::int64_t elem_bytes,
                            AllgatherAlgo algo = AllgatherAlgo::RecursiveDoubling);

/// Allgatherv ring with per-rank payload bytes. `bytes_per_rank` may be
/// empty (all payloads kVariableBytes). Op operands are BLOCK indices
/// (a = block, b = a + 1), since element offsets depend on unknown sizes.
Schedule allgatherv_schedule(int world, std::span<const std::int64_t> bytes_per_rank);

/// Telemetry-plane stats allgather (obs/telemetry.hpp): a ring allgather of
/// one fixed-size `stats_bytes` block per rank, tagged on the reserved
/// absolute band comm::kTagTelemetryBase + round instead of an async-band
/// block. Keeping the exchange off the SPMD tag cursor means enabling
/// telemetry cannot shift any other collective's tag block — telemetry
/// on/off is bit-identical by construction. Op operands are BLOCK indices
/// (a = contributing logical rank, b = a + 1), like allgatherv.
Schedule telemetry_allgather_schedule(int world, std::int64_t stats_bytes);

/// Flat gather of `bytes` per rank to `root`; root receives in ascending
/// source order (a = contributing rank's block index).
Schedule gather_schedule(int world, int root, std::int64_t bytes);

/// gTop-k merge phase of Algorithm 3 (core/async_gtopk.cpp): fold ranks
/// beyond the largest power-of-two base into the base (phase 0, tag 0),
/// then the distance-doubling tree merge to rank 0 (phase 1, tags
/// 1..rounds). `wire_bytes` is the sparse wire payload size (16 + 8k for an
/// exactly-k-sparse gradient), or kVariableBytes. The subsequent broadcast
/// of rank 0's result is broadcast_schedule; gtopk_allreduce_schedule is
/// the two composed.
Schedule gtopk_merge_schedule(int world, std::int64_t wire_bytes);

/// gtopk_merge_schedule(world, ...).tag_count without building it: the
/// fold tag plus one per tree round (0 for world 1).
int gtopk_merge_tag_count(int world);

/// The full gTop-k collective of Algorithm 3 — the one op program
/// core::AsyncGtopkAllreduce executes: gtopk_merge_schedule followed by the
/// `bcast` broadcast of rank 0's result, in one tag block (broadcast ops'
/// offsets start at gtopk_merge_tag_count(world)).
Schedule gtopk_allreduce_schedule(int world, std::int64_t wire_bytes,
                                  BcastAlgo bcast = BcastAlgo::BinomialTree);

/// Concatenate schedules executed back-to-back by the same SPMD ranks into
/// one: per-rank programs append in order and tag offsets shift by the
/// running tag_count, exactly like consecutive fresh_async_tags blocks. All
/// parts must share `world` and must not use absolute tags.
Schedule concat_schedules(std::string proto, std::span<const Schedule> parts);

/// Map a LOGICAL-world schedule onto the surviving PHYSICAL ranks of a
/// larger world — the static mirror of what Communicator::set_view does at
/// runtime after a membership regroup. `sched.world` must equal
/// survivors.size(); `survivors` are strictly ascending physical ranks
/// < physical_world. Logical rank i's program lands on physical rank
/// survivors[i] with every peer translated; dead ranks get empty programs.
/// Verifying the result (analysis/verify.hpp) therefore certifies the
/// exact op/peer/tag structure the regrouped collectives execute.
Schedule remap_schedule(const Schedule& sched, std::span<const int> survivors,
                        int physical_world);

}  // namespace gtopk::collectives
