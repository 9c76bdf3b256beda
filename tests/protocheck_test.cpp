// protocheck test suite: the extracted ARQ/membership/reconnect FSMs, the
// explorer's violation machinery, the exhaustive clean sweeps that gate the
// control plane, the seeded-break counterexample drills WITH real-stack
// replay, and ReliableTransport's wire ack plane (real ack/pull frames) on
// non-shared-memory fabrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/protocheck/arq_model.hpp"
#include "analysis/protocheck/explorer.hpp"
#include "analysis/protocheck/membership_model.hpp"
#include "analysis/protocheck/reconnect_model.hpp"
#include "analysis/protocheck/replay.hpp"
#include "comm/fault_transport.hpp"
#include "comm/membership_fsm.hpp"
#include "comm/reconnect_fsm.hpp"
#include "comm/reliable_fsm.hpp"
#include "comm/reliable_transport.hpp"
#include "comm/tags.hpp"
#include "comm/transport.hpp"

namespace {

namespace pc = gtopk::analysis::protocheck;
namespace fsm = gtopk::comm::fsm;
using gtopk::comm::ReliableConfig;
using gtopk::comm::ReliableTransport;

/// Clears any seeded FSM break on scope exit so a failing test cannot
/// poison the rest of the binary (the hooks are process-global).
struct BreakGuard {
    ~BreakGuard() {
        fsm::set_arq_break(fsm::ArqBreak::kNone);
        fsm::set_membership_break(fsm::MembershipBreak::kNone);
        fsm::set_reconnect_break(fsm::ReconnectBreak::kNone);
    }
};

// ---------------------------------------------------------------------------
// FSM unit tests: the extracted transition functions in isolation.

TEST(ReliableFsmTest, TxAssignsSequentialSeqsAndGcsAckedPrefix) {
    fsm::ArqTxState tx;
    const auto d1 = fsm::arq_tx_send(tx, /*cum_ack=*/0, /*dst_alive=*/true);
    const auto d2 = fsm::arq_tx_send(tx, 0, true);
    EXPECT_EQ(d1.seq, 1u);
    EXPECT_EQ(d2.seq, 2u);
    EXPECT_TRUE(d1.buffer);
    EXPECT_EQ(tx.buffered, 2u);
    // Receiver acked seq 2: the next send GCs both buffered payloads.
    const auto d3 = fsm::arq_tx_send(tx, /*cum_ack=*/2, true);
    EXPECT_EQ(d3.seq, 3u);
    EXPECT_EQ(d3.gc, 2u);
    EXPECT_EQ(tx.base_seq, 3u);
    EXPECT_EQ(tx.buffered, 1u);
    EXPECT_EQ(fsm::arq_tx_buffer_index(tx, 3), std::optional<std::uint64_t>(0));
    EXPECT_FALSE(fsm::arq_tx_buffer_index(tx, 2).has_value());  // GCed
}

TEST(ReliableFsmTest, TxDoesNotBufferForDeadReceiver) {
    fsm::ArqTxState tx;
    (void)fsm::arq_tx_send(tx, 0, true);
    const auto d = fsm::arq_tx_send(tx, 0, /*dst_alive=*/false);
    EXPECT_FALSE(d.buffer);
    EXPECT_GT(d.clear, 0u);  // pending copies dropped too
    EXPECT_EQ(tx.buffered, 0u);
}

TEST(ReliableFsmTest, RxParksOutOfOrderAndReleasesContiguousRun) {
    fsm::ArqRxState rx;
    const auto p3 = fsm::arq_rx_envelope(rx, 3, true);
    const auto p2 = fsm::arq_rx_envelope(rx, 2, true);
    EXPECT_EQ(p3.action, fsm::RxAction::kPark);
    EXPECT_EQ(p2.action, fsm::RxAction::kPark);
    EXPECT_EQ(rx.parked.size(), 2u);
    // Seq 1 arrives: delivered, and the parked {2,3} run releases with it.
    const auto p1 = fsm::arq_rx_envelope(rx, 1, true);
    EXPECT_EQ(p1.action, fsm::RxAction::kDeliver);
    EXPECT_EQ(p1.release, 2u);
    EXPECT_EQ(p1.cum_ack, 3u);
    EXPECT_TRUE(rx.parked.empty());
    EXPECT_EQ(rx.expected, 4u);
}

TEST(ReliableFsmTest, RxDropsDuplicatesAndCorruption) {
    fsm::ArqRxState rx;
    (void)fsm::arq_rx_envelope(rx, 1, true);
    EXPECT_EQ(fsm::arq_rx_envelope(rx, 1, true).action,
              fsm::RxAction::kDropDuplicate);
    EXPECT_EQ(fsm::arq_rx_envelope(rx, 3, true).action, fsm::RxAction::kPark);
    EXPECT_EQ(fsm::arq_rx_envelope(rx, 3, true).action,
              fsm::RxAction::kDropDuplicate);  // already parked
    EXPECT_EQ(fsm::arq_rx_envelope(rx, 2, false).action,
              fsm::RxAction::kDropCorrupt);
}

TEST(ReliableFsmTest, RxRecoverStaleSkipReleasesParkedSuffix) {
    fsm::ArqRxState rx;
    (void)fsm::arq_rx_envelope(rx, 2, true);  // parked, expected still 1
    const auto d = fsm::arq_rx_recover(rx, /*stale=*/true);
    EXPECT_EQ(d.action, fsm::RecoverAction::kSkipStale);
    // Skipping the stale gap head makes parked seq 2 contiguous: it must be
    // released, or the edge leaks the payload forever (the pre-FSM bug).
    EXPECT_EQ(d.release, 1u);
    EXPECT_EQ(d.cum_ack, 2u);
    EXPECT_TRUE(rx.parked.empty());
}

TEST(MembershipFsmTest, QuorumRuleFinalizesMajorityRejectsMinority) {
    auto st = fsm::membership_init(4);
    const std::vector<bool> alive(4, true);
    EXPECT_EQ(fsm::membership_join(st, 0, alive), fsm::JoinVerdict::kJoined);
    EXPECT_EQ(fsm::membership_join(st, 0, alive),
              fsm::JoinVerdict::kAlreadyJoined);
    // 1 of 4 live joined: neither fast path nor quorum, even at expiry.
    EXPECT_EQ(fsm::membership_evaluate(st, alive, false),
              fsm::RoundVerdict::kWait);
    EXPECT_EQ(fsm::membership_evaluate(st, alive, true),
              fsm::RoundVerdict::kAbortNoQuorum);
    (void)fsm::membership_join(st, 1, alive);
    (void)fsm::membership_join(st, 2, alive);
    // 3 of 4 at grace expiry is a strict majority.
    EXPECT_EQ(fsm::membership_evaluate(st, alive, true),
              fsm::RoundVerdict::kFinalizeQuorum);
    const auto view = fsm::membership_finalize(st);
    EXPECT_EQ(view.epoch, 1);
    EXPECT_EQ(view.members, (std::vector<int>{0, 1, 2}));
    // Rank 3 was voted out: its next join must be rejected.
    EXPECT_EQ(fsm::membership_join(st, 3, alive),
              fsm::JoinVerdict::kNotInView);
}

TEST(MembershipFsmTest, FastPathFinalizesWhenEveryLiveMemberJoined) {
    auto st = fsm::membership_init(3);
    std::vector<bool> alive(3, true);
    alive[2] = false;  // fabric-dead
    (void)fsm::membership_join(st, 0, alive);
    EXPECT_EQ(fsm::membership_evaluate(st, alive, false),
              fsm::RoundVerdict::kWait);
    (void)fsm::membership_join(st, 1, alive);
    EXPECT_EQ(fsm::membership_evaluate(st, alive, false),
              fsm::RoundVerdict::kFinalizeAll);
    EXPECT_EQ(fsm::membership_join(st, 2, alive), fsm::JoinVerdict::kNotLive);
}

// ---------------------------------------------------------------------------
// Explorer machinery: deadlock, violation and liveness detection on a toy
// counter model (independent of the protocol models).

struct CounterModel {
    // Counts 0..4; `stuck_at` (if >= 0) removes all actions there;
    // `bad_at` marks the value as an invariant violation; `trap_at`
    // replaces the fair increment with an unfair self-loop (livelock).
    int stuck_at = -1;
    int bad_at = -1;
    int trap_at = -1;

    struct State {
        int v = 0;
    };
    struct Action {
        bool fair = true;
    };
    State initial() const { return {}; }
    std::vector<Action> actions(const State& s) const {
        if (s.v >= 4 || s.v == stuck_at) return {};
        if (s.v == trap_at) return {{false}};
        return {{true}};
    }
    State apply(const State& s, const Action&) const { return {s.v + 1}; }
    std::string describe(const Action&) const { return "inc"; }
    std::optional<std::string> check(const State& s) const {
        if (s.v == bad_at) return "bad-counter";
        return std::nullopt;
    }
    bool is_goal(const State& s) const { return s.v >= 4; }
    bool is_fair(const Action& a) const { return a.fair; }
    std::vector<std::uint64_t> encode(const State& s) const {
        return {static_cast<std::uint64_t>(s.v)};
    }
};

TEST(ExplorerTest, CleanModelVerifiesWithMinimalStateCount) {
    const auto r = pc::explore(CounterModel{});
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.states, 5u);
    EXPECT_EQ(r.max_depth, 4u);
}

TEST(ExplorerTest, ReportsViolationWithMinimalTrace) {
    const auto r = pc::explore(CounterModel{-1, /*bad_at=*/3, -1});
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(*r.violation, "bad-counter");
    EXPECT_EQ(r.trace.size(), 3u);  // BFS minimality: exactly 3 increments
    for (const auto& step : r.trace) EXPECT_EQ(step.label, "inc");
}

TEST(ExplorerTest, ReportsDeadlockOnStuckNonGoalState) {
    const auto r = pc::explore(CounterModel{/*stuck_at=*/2, -1, -1});
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(*r.violation, "deadlock");
    EXPECT_EQ(r.trace.size(), 2u);
}

TEST(ExplorerTest, ReportsLivelockWhenOnlyUnfairActionsProgress) {
    // The unfair self-loop at 2 never counts as guaranteed progress: state
    // 2 has no fair path to the goal.
    const auto r = pc::explore(CounterModel{-1, -1, /*trap_at=*/2});
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_NE(r.violation->find("livelock"), std::string::npos);
}

TEST(ExplorerTest, TruncatesAtStateCap) {
    pc::ExploreLimits limits;
    limits.max_states = 2;
    const auto r = pc::explore(CounterModel{}, limits);
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------------
// Exhaustive clean sweeps — the gating property. The membership sweeps and
// the seeded quorum break run once, as the protocheck ctest cases in
// tools/CMakeLists.txt: those fail on a violation, a truncated search, a
// seeded break that surfaces as the wrong violation, or a replay that does
// not reproduce.

TEST(ProtocheckSweepTest, ArqFullAdversaryIsClean) {
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    cfg.allow_kill = true;
    const auto r = pc::explore(pc::ArqModel(cfg));
    EXPECT_TRUE(r.clean()) << r.violation.value_or("truncated");
    EXPECT_GT(r.states, 1000u);  // sanity: the adversary really branches
}

TEST(ProtocheckSweepTest, ArqWithEpochBumpIsClean) {
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    cfg.allow_kill = true;
    cfg.max_epoch_bumps = 1;
    const auto r = pc::explore(pc::ArqModel(cfg));
    EXPECT_TRUE(r.clean()) << r.violation.value_or("truncated");
}

TEST(ProtocheckSweepTest, ReconnectFullAdversaryIsCleanWithLiveness) {
    // Connection losses, dropped RESUME/RESUME_OK frames, delayed backlog
    // dials and patience expiries on either side: every schedule keeps the
    // session monotonic and agreed, and converges (fair liveness) to one
    // resumed link or a dead one. losses = 0 is the first connection of a
    // never-connected link on its own.
    for (int losses = 0; losses <= 2; ++losses) {
        pc::ReconnectModelConfig cfg;
        cfg.max_losses = losses;
        const auto r = pc::explore(pc::ReconnectModel(cfg));
        EXPECT_TRUE(r.clean())
            << "losses " << losses << ": " << r.violation.value_or("truncated");
        EXPECT_GT(r.states, 100u);  // sanity: the adversary really branches
    }
}

// ---------------------------------------------------------------------------
// Seeded invariant breaks: the checker must find a counterexample and the
// trace must replay to a real failure through the real stack (the
// acceptance gate for spec-executes-as-code).

TEST(SeededBreakTest, GcDropsUnackedYieldsCounterexampleThatReplays) {
    BreakGuard guard;
    fsm::set_arq_break(fsm::ArqBreak::kGcDropsUnacked);
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    const auto r = pc::explore(pc::ArqModel(cfg));
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(*r.violation, "gc-dropped-unacked");
    ASSERT_FALSE(r.trace.empty());

    std::vector<pc::ArqModel::Action> trace;
    for (const auto& step : r.trace) trace.push_back(step.action);
    // The break is still seeded: the REAL transport executes the same
    // broken fsm functions, so the replay must agree with the broken
    // model's prediction (payloads lost from the retransmit buffer).
    EXPECT_EQ(pc::arq_conformance_diff(cfg, trace), std::nullopt);
}

TEST(SeededBreakTest, AcceptDuplicatesDeliversOutOfOrderForReal) {
    BreakGuard guard;
    fsm::set_arq_break(fsm::ArqBreak::kAcceptDuplicates);
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    const auto r = pc::explore(pc::ArqModel(cfg));
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(*r.violation, "out-of-order-delivery");

    std::vector<pc::ArqModel::Action> trace;
    for (const auto& step : r.trace) trace.push_back(step.action);
    const pc::ArqReplayResult real = pc::replay_arq_trace(cfg, trace);
    // The real application must actually observe the ordering anomaly.
    bool non_increasing = false;
    for (std::size_t i = 1; i < real.delivered.size(); ++i) {
        non_increasing |= real.delivered[i] <= real.delivered[i - 1];
    }
    EXPECT_TRUE(non_increasing);
}

TEST(SeededBreakTest, AcceptStaleResurrectsAbandonedSession) {
    BreakGuard guard;
    fsm::set_reconnect_break(fsm::ReconnectBreak::kAcceptStale);
    pc::ReconnectModelConfig cfg;
    const auto r = pc::explore(pc::ReconnectModel(cfg));
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_EQ(*r.violation, "stale-session-accepted");
    ASSERT_FALSE(r.trace.empty());
    // The BFS-minimal counterexample needs at least two dials in flight:
    // the newer proposal delivered first, then the stale backlog one.
    int dials = 0;
    for (const auto& step : r.trace) dials += step.label == "dial";
    EXPECT_GE(dials, 2);
}

TEST(SeededBreakTest, CleanFsmsFindNoCounterexample) {
    // Guard against the drills passing vacuously: with no break seeded the
    // same configurations must verify clean.
    pc::ArqModelConfig acfg;
    acfg.max_msgs = 3;
    EXPECT_TRUE(pc::explore(pc::ArqModel(acfg)).clean());
    pc::MembershipModelConfig mcfg;
    mcfg.world = 3;
    mcfg.max_kills = 1;
    EXPECT_TRUE(pc::explore(pc::MembershipModel(mcfg)).clean());
    EXPECT_TRUE(pc::explore(pc::ReconnectModel(pc::ReconnectModelConfig{})).clean());
}

// ---------------------------------------------------------------------------
// Model/real conformance on random adversary walks (code -> model
// direction of the bridge).

TEST(ConformanceTest, RandomAdversaryTracesMatchRealTransportExactly) {
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    const auto diff = pc::arq_random_conformance(cfg, /*samples=*/32,
                                                 /*max_steps=*/40, /*seed=*/11);
    EXPECT_EQ(diff, std::nullopt) << *diff;
}

TEST(ConformanceTest, EpochBumpTracesMatchRealTransportExactly) {
    pc::ArqModelConfig cfg;
    cfg.max_msgs = 3;
    cfg.max_epoch_bumps = 1;
    const auto diff = pc::arq_random_conformance(cfg, /*samples=*/32,
                                                 /*max_steps=*/40, /*seed=*/13);
    EXPECT_EQ(diff, std::nullopt) << *diff;
}

// ---------------------------------------------------------------------------
// Wire ack plane: on a fabric whose ranks do NOT share this process's
// address space, ReliableTransport must run the full ARQ cross-"process" —
// acks and gap pulls as real frames, never the old silent passthrough.

/// Minimal non-shared-memory fabric: an in-process mailbox fabric that
/// REPORTS itself as multi-process (what TcpTransport returns). The
/// reliable layer cannot tell the difference, so its wire ack plane is
/// testable without sockets.
class ForeignFabric final : public gtopk::comm::Transport {
public:
    explicit ForeignFabric(int world) : inner_(world) {}
    int world_size() const override { return inner_.world_size(); }
    void deliver(int dst, gtopk::comm::Message msg) override {
        inner_.deliver(dst, std::move(msg));
    }
    std::optional<gtopk::comm::Message> try_receive(int rank, int source,
                                                    int tag) override {
        return inner_.try_receive(rank, source, tag);
    }
    void shutdown() override { inner_.shutdown(); }
    bool shared_memory_fabric() const override { return false; }

private:
    gtopk::comm::InProcTransport inner_;
};

/// Application-band tag for the wire-ARQ round-trip drills.
constexpr int kWireTestTag = 7;

gtopk::comm::Message make_msg(int source, int tag, int payload_byte) {
    gtopk::comm::Message m;
    m.source = source;
    m.tag = tag;
    m.epoch = 0;
    m.arrival_time_s = 0.0;
    m.payload.assign(4, std::byte{static_cast<unsigned char>(payload_byte)});
    return m;
}

TEST(WireArqTest, ConstructsAndRoundTripsOnNonSharedMemoryFabric) {
    ReliableTransport t(std::make_unique<ForeignFabric>(2), ReliableConfig{});
    EXPECT_FALSE(t.shared_memory_fabric());
    t.deliver(1, make_msg(/*source=*/0, kWireTestTag, /*payload_byte=*/0x2a));
    const auto got = t.try_receive(1, 0, kWireTestTag);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload.size(), 4u);
    EXPECT_EQ(std::to_integer<int>(got->payload[0]), 0x2a);
    // The delivery owes rank 0 a cumulative-ack frame; draining rank 0's
    // side folds it without error (and without touching shared state).
    (void)t.try_receive(0, 1, kWireTestTag);
    t.shutdown();
}

TEST(WireArqTest, DropsRecoverThroughPullFramesBitIdentically) {
    gtopk::comm::FaultPlan plan;
    plan.seed = 99;
    gtopk::comm::FaultRule rule;
    rule.tag = gtopk::comm::kTagReliableData;
    rule.drop_every_n = 2;  // every 2nd envelope on each edge vanishes
    plan.add(rule);
    ReliableTransport t(
        std::make_unique<gtopk::comm::FaultInjectingTransport>(
            std::make_unique<ForeignFabric>(2), plan),
        ReliableConfig{});
    EXPECT_FALSE(t.shared_memory_fabric());

    constexpr int kMsgs = 8;
    for (int i = 0; i < kMsgs; ++i) {
        t.deliver(1, make_msg(0, kWireTestTag, /*payload_byte=*/i));
    }
    // Drive both endpoints explicitly (deterministic, no backoff clock):
    // rank 1 names its gap head in pull frames, rank 0 answers them with
    // retransmits, rank 1 drains the recovered envelopes.
    std::vector<int> got;
    for (int round = 0; round < 64 && static_cast<int>(got.size()) < kMsgs;
         ++round) {
        (void)t.recover_now(1);  // drain + emit pulls
        (void)t.recover_now(0);  // fold acks, answer pulls
        while (auto m = t.try_receive(1, 0, kWireTestTag)) {
            got.push_back(std::to_integer<int>(m->payload[0]));
        }
    }
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
    for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    EXPECT_GT(t.counts().retransmits, 0u);
    t.shutdown();
}

TEST(WireArqTest, MalformedControlFramesAreDroppedNotFolded) {
    ReliableTransport t(std::make_unique<ForeignFabric>(2), ReliableConfig{});
    // A corrupted ack frame must never GC unacked payloads: feed garbage
    // directly to the inner fabric on the reserved ack tag.
    gtopk::comm::Message junk;
    junk.source = 1;
    junk.tag = gtopk::comm::kTagReliableAck;
    junk.epoch = 0;
    junk.payload.assign(3, std::byte{0x5a});  // wrong size, wrong magic
    t.inner().deliver(0, std::move(junk));
    const auto before = t.counts().corrupt_dropped;
    (void)t.recover_now(0);
    EXPECT_GT(t.counts().corrupt_dropped, before);
    t.shutdown();
}

TEST(WireArqTest, SharedMemoryFabricKeepsSharedAckPlane) {
    ReliableTransport t(
        std::make_unique<gtopk::comm::InProcTransport>(2), ReliableConfig{});
    EXPECT_TRUE(t.shared_memory_fabric());
    t.shutdown();
}

// ---------------------------------------------------------------------------
// Reconnect FSM unit tests (the socket layer's session-resume spec).

TEST(ReconnectFsmTest, DownDialEstablishRoundTrip) {
    fsm::LinkState dialer;  // higher rank
    fsm::LinkState acceptor;
    const fsm::ReconnectPolicy policy;
    EXPECT_TRUE(fsm::link_down(dialer));
    EXPECT_FALSE(fsm::link_down(dialer));  // edge-triggered
    EXPECT_TRUE(fsm::link_down(acceptor));
    EXPECT_EQ(fsm::link_dial(dialer, policy), fsm::DialVerdict::kDial);
    const std::uint64_t proposal = fsm::link_propose(dialer);
    EXPECT_GT(proposal, dialer.session);
    EXPECT_EQ(fsm::link_resume(acceptor, proposal),
              fsm::ResumeVerdict::kAccept);
    EXPECT_EQ(acceptor.session, proposal);
    fsm::link_established(dialer, proposal);
    EXPECT_EQ(dialer.phase, fsm::LinkPhase::kUp);
    EXPECT_EQ(dialer.session, acceptor.session);
}

TEST(ReconnectFsmTest, StaleProposalRejectedSessionsMonotonic) {
    fsm::LinkState acceptor;
    acceptor.session = 5;
    EXPECT_EQ(fsm::link_resume(acceptor, 5), fsm::ResumeVerdict::kRejectStale);
    EXPECT_EQ(fsm::link_resume(acceptor, 3), fsm::ResumeVerdict::kRejectStale);
    EXPECT_EQ(acceptor.session, 5u);
    EXPECT_EQ(fsm::link_resume(acceptor, 6), fsm::ResumeVerdict::kAccept);
}

TEST(ReconnectFsmTest, LostResumeOkRetryStillClearsAcceptorBar) {
    // Dial 1's RESUME_OK is lost AFTER the acceptor installed the session:
    // the retry must propose something the acceptor still accepts.
    fsm::LinkState dialer;
    fsm::LinkState acceptor;
    const fsm::ReconnectPolicy policy;
    (void)fsm::link_down(dialer);
    (void)fsm::link_down(acceptor);
    (void)fsm::link_dial(dialer, policy);
    const std::uint64_t p1 = fsm::link_propose(dialer);
    EXPECT_EQ(fsm::link_resume(acceptor, p1), fsm::ResumeVerdict::kAccept);
    // ...RESUME_OK lost; dialer never learns, dials again.
    (void)fsm::link_dial(dialer, policy);
    const std::uint64_t p2 = fsm::link_propose(dialer);
    EXPECT_GT(p2, p1);
    EXPECT_EQ(fsm::link_resume(acceptor, p2), fsm::ResumeVerdict::kAccept);
}

TEST(ReconnectFsmTest, BudgetExhaustionIsAbsorbingDeath) {
    fsm::LinkState st;
    fsm::ReconnectPolicy policy;
    policy.max_attempts = 2;
    (void)fsm::link_down(st);
    EXPECT_EQ(fsm::link_dial(st, policy), fsm::DialVerdict::kDial);
    EXPECT_EQ(fsm::link_dial(st, policy), fsm::DialVerdict::kDial);
    EXPECT_EQ(fsm::link_dial(st, policy), fsm::DialVerdict::kDead);
    EXPECT_EQ(st.phase, fsm::LinkPhase::kDead);
    // Nothing revives a dead link.
    EXPECT_EQ(fsm::link_resume(st, 100), fsm::ResumeVerdict::kRejectDead);
    fsm::link_established(st, 100);
    EXPECT_EQ(st.phase, fsm::LinkPhase::kDead);
    EXPECT_FALSE(fsm::link_down(st));
}

TEST(ReconnectFsmTest, BackoffDoublesAndClamps) {
    fsm::LinkState st;
    fsm::ReconnectPolicy policy;
    policy.initial_backoff_s = 0.05;
    policy.max_backoff_s = 0.4;
    (void)fsm::link_down(st);
    EXPECT_DOUBLE_EQ(fsm::link_backoff_s(st, policy), 0.05);
    st.attempts = 1;
    EXPECT_DOUBLE_EQ(fsm::link_backoff_s(st, policy), 0.1);
    st.attempts = 10;
    EXPECT_DOUBLE_EQ(fsm::link_backoff_s(st, policy), 0.4);
}

TEST(ReconnectFsmTest, NeverConnectedOpensOnProposalOne) {
    // Every TcpTransport link starts here and opens through the resume
    // handshake: the dialer's first proposal is 1, which the acceptor takes;
    // 0 does not advance the never-connected session and is stale.
    fsm::LinkState dialer = fsm::kNeverConnected;
    fsm::LinkState acceptor = fsm::kNeverConnected;
    EXPECT_EQ(dialer.phase, fsm::LinkPhase::kDown);
    EXPECT_FALSE(fsm::link_down(dialer));  // nothing to lose yet
    EXPECT_EQ(fsm::link_dial(dialer, fsm::ReconnectPolicy{}),
              fsm::DialVerdict::kDial);
    EXPECT_EQ(fsm::link_propose(dialer), 1u);
    EXPECT_EQ(fsm::link_resume(acceptor, 0), fsm::ResumeVerdict::kRejectStale);
    EXPECT_EQ(acceptor.phase, fsm::LinkPhase::kDown);
    EXPECT_EQ(fsm::link_resume(acceptor, 1), fsm::ResumeVerdict::kAccept);
    EXPECT_EQ(acceptor.phase, fsm::LinkPhase::kUp);
    fsm::link_established(dialer, 1);
    EXPECT_EQ(dialer.phase, fsm::LinkPhase::kUp);
    EXPECT_EQ(dialer.session, 1u);
    EXPECT_EQ(dialer.attempts, 0u);
}

TEST(ReconnectFsmTest, PassiveExpiryOnlyFromDown) {
    fsm::LinkState st;
    EXPECT_FALSE(fsm::link_expire(st));  // up: patience does not apply
    (void)fsm::link_down(st);
    EXPECT_TRUE(fsm::link_expire(st));
    EXPECT_EQ(st.phase, fsm::LinkPhase::kDead);
    EXPECT_FALSE(fsm::link_expire(st));  // absorbing
}

}  // namespace
