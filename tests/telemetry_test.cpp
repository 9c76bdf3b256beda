// Cluster telemetry plane tests (DESIGN.md §13): the stats allgather must
// verify statically and price exactly like any other schedule, deliver the
// same IterSnapshot to every rank, stay bit-invisible to training (absolute
// tag band, no tag-cursor motion), attribute measured virtual time to
// the alpha-beta model with zero delta on fault-free runs, and keep
// reporting through chaos and an elastic regroup — including the flight
// recorder's forensic bundle on an injected kill.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_rules.hpp"
#include "analysis/verify.hpp"
#include "chaos_common.hpp"
#include "collectives/schedule.hpp"
#include "comm/membership.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/straggler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace gtopk;
using chaos::Outcome;
using chaos::TinyTrainScenario;
using train::Algorithm;

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A fully-populated per-rank stats row with rank-recognizable values.
obs::RankIterStats synthetic_stats(int rank, std::int64_t step) {
    obs::RankIterStats st;
    st.step = step;
    st.compute_host_s = 0.010 + 0.001 * rank;
    st.compress_host_s = 0.002 * rank;
    st.comm_virtual_s = 0.005;
    st.update_host_s = 0.001;
    st.wire_bytes_sent = 1000 + rank;
    st.wire_bytes_received = 2000 + rank;
    st.messages_sent = 10 + rank;
    st.messages_received = 20 + rank;
    st.nnz = 32 + rank;
    st.mailbox_depth = rank;
    st.faults_injected = 3 * rank;
    st.retransmits = rank;
    return st;
}

// ---------------------------------------------------------------------------
// Static layer: the telemetry allgather is a verified, exactly-priced
// schedule like every other collective in the repo.

TEST(TelemetrySchedule, VerifiesAndPricesExactlyWorlds1To64) {
    const comm::NetworkModel net = comm::NetworkModel::one_gbps_ethernet();
    const auto bytes = static_cast<std::int64_t>(sizeof(obs::RankIterStats));
    for (int w = 1; w <= 64; ++w) {
        const collectives::Schedule sched =
            collectives::telemetry_allgather_schedule(w, bytes);
        const analysis::VerifyResult vr = analysis::verify_schedule(sched, &net);
        ASSERT_TRUE(vr.ok()) << "world " << w << ": "
                             << (vr.violations.empty()
                                     ? std::string("?")
                                     : vr.violations.front().detail);
        const auto totals =
            analysis::expected_totals("telemetry.allgather", w, bytes, 1);
        ASSERT_TRUE(totals.has_value()) << "world " << w;
        EXPECT_EQ(vr.total_messages, totals->messages) << "world " << w;
        ASSERT_TRUE(vr.bytes_exact);
        EXPECT_EQ(vr.total_bytes, totals->bytes.value()) << "world " << w;
        // Ring: P-1 serialized rounds of one fixed-size block each.
        ASSERT_TRUE(vr.critical_path_s.has_value());
        EXPECT_NEAR(*vr.critical_path_s, (w - 1) * net.transfer_time_s(bytes),
                    1e-12)
            << "world " << w;
    }
}

// ---------------------------------------------------------------------------
// Exchange: every rank sees the identical snapshot, rows preserved bit for
// bit, and the lead-side history ring / counters behave.

TEST(Telemetry, ExchangeDeliversIdenticalSnapshotToEveryRank) {
    constexpr int kWorld = 5;
    constexpr std::int64_t kSteps = 3;
    obs::Telemetry telem(kWorld);
    std::vector<std::vector<obs::IterSnapshot>> seen(kWorld);
    comm::Cluster::run(kWorld, comm::NetworkModel::free(),
                       [&](comm::Communicator& comm) {
                           // A zero-tag reservation reads the SPMD tag
                           // cursor without moving it.
                           const int cursor = comm.fresh_async_tags(0);
                           for (std::int64_t s = 0; s < kSteps; ++s) {
                               seen[comm.rank()].push_back(telem.exchange(
                                   comm, synthetic_stats(comm.rank(), s)));
                           }
                           // The absolute telemetry band never advances it.
                           EXPECT_EQ(comm.fresh_async_tags(0), cursor);
                       });

    EXPECT_EQ(telem.exchanges(), kSteps);
    ASSERT_EQ(telem.snapshots().size(), static_cast<std::size_t>(kSteps));
    for (std::int64_t s = 0; s < kSteps; ++s) {
        const obs::IterSnapshot& lead = seen[0][static_cast<std::size_t>(s)];
        ASSERT_EQ(lead.world(), kWorld);
        EXPECT_EQ(lead.step, s);
        for (int r = 0; r < kWorld; ++r) {
            const obs::IterSnapshot& mine = seen[r][static_cast<std::size_t>(s)];
            ASSERT_EQ(mine.world(), kWorld) << "rank " << r;
            for (int row = 0; row < kWorld; ++row) {
                // RankIterStats is padding-free POD: bytewise equality is
                // exactly "the allgather delivered what rank `row` folded".
                EXPECT_EQ(std::memcmp(&mine.ranks[row], &lead.ranks[row],
                                      sizeof(obs::RankIterStats)),
                          0)
                    << "rank " << r << " row " << row << " step " << s;
            }
        }
        // Spot-check content against the synthetic generator.
        for (int row = 0; row < kWorld; ++row) {
            obs::RankIterStats expect = synthetic_stats(row, s);
            expect.physical_rank = row;
            expect.logical_rank = row;
            EXPECT_EQ(std::memcmp(&lead.ranks[row], &expect,
                                  sizeof(obs::RankIterStats)),
                      0)
                << "row " << row << " step " << s;
        }
    }
}

TEST(Telemetry, HistoryRingKeepsNewestSnapshots) {
    obs::Telemetry::Config cfg;
    cfg.history = 4;
    obs::Telemetry telem(2, cfg);
    comm::Cluster::run(2, comm::NetworkModel::free(),
                       [&](comm::Communicator& comm) {
                           for (std::int64_t s = 0; s < 10; ++s) {
                               telem.exchange(comm,
                                              synthetic_stats(comm.rank(), s));
                           }
                       });
    EXPECT_EQ(telem.exchanges(), 10);
    const auto snaps = telem.snapshots();
    ASSERT_EQ(snaps.size(), 4u);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].step, 6 + static_cast<std::int64_t>(i));
    }
}

TEST(Telemetry, JsonlLineRoundTripsThroughTheJsonParser) {
    obs::IterSnapshot snap;
    snap.step = 7;
    snap.epoch = 1;
    for (int r = 0; r < 3; ++r) {
        obs::RankIterStats st = synthetic_stats(r, 7);
        st.physical_rank = r;
        st.logical_rank = r;
        snap.ranks.push_back(st);
    }
    obs::CollectiveSpec spec{"gtopk.allreduce", 280, 1, 1000, 33};
    const double predicted = 0.00125;
    std::ostringstream ss;
    obs::write_snapshot_jsonl(ss, snap, &spec, &predicted);

    const util::JsonValue v = util::JsonValue::parse(ss.str());
    EXPECT_EQ(v.find("step")->as_int(), 7);
    EXPECT_EQ(v.find("epoch")->as_int(), 1);
    EXPECT_EQ(v.find("world")->as_int(), 3);
    EXPECT_EQ(v.find("proto")->as_string(), "gtopk.allreduce");
    EXPECT_EQ(v.find("k")->as_int(), 33);
    EXPECT_DOUBLE_EQ(v.find("predicted_comm_s")->as_number(), predicted);
    const auto& ranks = v.find("ranks")->as_array();
    ASSERT_EQ(ranks.size(), 3u);
    EXPECT_EQ(ranks[2].find("rank")->as_int(), 2);
    EXPECT_EQ(ranks[2].find("bytes_out")->as_int(), 1002);
    EXPECT_DOUBLE_EQ(ranks[2].find("compute_s")->as_number(), 0.012);
    EXPECT_EQ(ranks[2].find("nnz")->as_int(), 34);
}

// ---------------------------------------------------------------------------
// Training invariance: the exchange lives on the reserved absolute tag band
// and never advances the async-band tag cursor, so telemetry ON is
// bit-identical to telemetry OFF for every algorithm.

class TelemetryOnOffSweep : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Algorithms, TelemetryOnOffSweep,
                         ::testing::Values(Algorithm::DenseSsgd,
                                           Algorithm::TopkSsgd,
                                           Algorithm::GtopkSsgd,
                                           Algorithm::NaiveGtopkSsgd));

TEST_P(TelemetryOnOffSweep, TrainingIsBitIdenticalWithTelemetryOn) {
    const Algorithm algo = GetParam();
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(algo);

    obs::Telemetry telem(4);
    train::TrainConfig cfg = scenario.config(algo);
    cfg.telemetry = &telem;
    const auto result = scenario.run(cfg);

    ASSERT_EQ(result.final_params, clean.final_params);
    ASSERT_EQ(result.epochs.size(), clean.epochs.size());
    for (std::size_t e = 0; e < clean.epochs.size(); ++e) {
        EXPECT_EQ(result.epochs[e].train_loss, clean.epochs[e].train_loss);
    }
    // One exchange per training iteration, every snapshot full-world.
    EXPECT_EQ(telem.exchanges(), cfg.epochs * cfg.iters_per_epoch);
    for (const obs::IterSnapshot& snap : telem.snapshots()) {
        EXPECT_EQ(snap.world(), 4);
    }
}

// Pinned clocks of a telemetry-on GtopkSsgd run at P = 4 on 1 GbE: every
// rank's virtual clock at the start and end of each step's telemetry
// exchange and at the end of each iteration (read off the trainer's own
// spans), plus every snapshot's virtual-time and count fields. comm_time_s,
// the host-time fields and the mailbox depth (it samples in-flight
// traffic) are left out. Recorded before the exchange moved off the
// blocking send/recv. Set GTOPK_PRINT_CLOCK_PIN=1 to print what a build
// computes; x86-64 only, like the other pins.
TEST(TelemetryClockPin, GtopkSsgdAtP4On1GbE) {
#if !defined(__x86_64__)
    GTEST_SKIP() << "hashes were recorded for x86-64 double arithmetic";
#endif
    constexpr int kWorld = 4;
    TinyTrainScenario scenario(kWorld);
    obs::Telemetry telem(kWorld);
    obs::Tracer tracer(kWorld);
    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.telemetry = &telem;
    cfg.tracer = &tracer;
    const auto result = train::train_distributed(
        kWorld, comm::NetworkModel::one_gbps_ethernet(), cfg,
        [mc = scenario.mlp](std::uint64_t seed) { return nn::make_mlp(mc, seed); },
        [&](std::int64_t step, int rank) {
            return scenario.dataset.batch_flat(
                scenario.sampler.batch_indices(step, rank, 8));
        },
        train::EvalBatchProvider{});
    ASSERT_FALSE(result.final_params.empty());

    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    };
    const int steps = cfg.epochs * cfg.iters_per_epoch;
    for (int r = 0; r < kWorld; ++r) {
        int telemetry_spans = 0;
        for (const obs::Span& s : tracer.rank_spans(r)) {
            const std::string name = s.name;
            if (name == "telemetry") {
                ++telemetry_spans;
                mix(&s.v_begin_s, sizeof(double));
            } else if (name != "iteration") {
                continue;
            }
            mix(&s.v_end_s, sizeof(double));
        }
        ASSERT_EQ(telemetry_spans, steps) << "rank " << r;
    }
    const std::vector<obs::IterSnapshot> snaps = telem.snapshots();
    ASSERT_EQ(snaps.size(), static_cast<std::size_t>(steps));
    for (const obs::IterSnapshot& snap : snaps) {
        mix(&snap.step, sizeof(snap.step));
        mix(&snap.epoch, sizeof(snap.epoch));
        for (const obs::RankIterStats& row : snap.ranks) {
            mix(&row.physical_rank, sizeof(row.physical_rank));
            mix(&row.logical_rank, sizeof(row.logical_rank));
            mix(&row.epoch, sizeof(row.epoch));
            mix(&row.regroups, sizeof(row.regroups));
            mix(&row.comm_virtual_s, sizeof(row.comm_virtual_s));
            mix(&row.wire_bytes_sent, sizeof(row.wire_bytes_sent));
            mix(&row.wire_bytes_received, sizeof(row.wire_bytes_received));
            mix(&row.messages_sent, sizeof(row.messages_sent));
            mix(&row.messages_received, sizeof(row.messages_received));
            mix(&row.nnz, sizeof(row.nnz));
            mix(&row.faults_injected, sizeof(row.faults_injected));
            mix(&row.retransmits, sizeof(row.retransmits));
        }
    }
    if (const char* env = std::getenv("GTOPK_PRINT_CLOCK_PIN");
        env && std::strcmp(env, "1") == 0) {
        std::printf("TelemetryClockPin 0x%016llxull\n",
                    static_cast<unsigned long long>(hash));
    }
    EXPECT_EQ(hash, 0xc09f5970c50b6cc9ull);
}

// ---------------------------------------------------------------------------
// Cost attribution: on a fault-free run the measured aggregate-phase
// virtual time must equal the alpha-beta critical path of the very schedule
// the collective executed — the gate behind the PR's acceptance criterion.

class AttributionSweep : public ::testing::TestWithParam<Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Protocols, AttributionSweep,
                         ::testing::Values(Algorithm::DenseSsgd,
                                           Algorithm::GtopkSsgd));

TEST_P(AttributionSweep, FaultFreeMeasuredMatchesAlphaBetaPrediction) {
    const Algorithm algo = GetParam();
    const comm::NetworkModel net = comm::NetworkModel::one_gbps_ethernet();
    TinyTrainScenario scenario(4);
    obs::Telemetry telem(4);
    obs::CostAttribution attr(net);
    telem.set_attribution(&attr);
    train::TrainConfig cfg = scenario.config(algo);
    cfg.telemetry = &telem;

    // TinyTrainScenario::run prices over the free network (zero times), so
    // drive train_distributed directly on 1GbE where the model is nontrivial.
    const auto result = train::train_distributed(
        scenario.world, net, cfg,
        [mc = scenario.mlp](std::uint64_t seed) { return nn::make_mlp(mc, seed); },
        [&](std::int64_t step, int rank) {
            return scenario.dataset.batch_flat(
                scenario.sampler.batch_indices(step, rank, 8));
        },
        train::EvalBatchProvider{});
    ASSERT_FALSE(result.final_params.empty());

    const auto entries = attr.entries();
    ASSERT_FALSE(entries.empty());
    for (const obs::AttributionEntry& e : entries) {
        ASSERT_TRUE(e.predicted_comm_s.has_value()) << e.proto;
        ASSERT_GT(e.steady_iterations, 0) << e.proto;
        // Time: exact agreement between the simulated virtual clocks and
        // the statically simulated critical path (same op program, same
        // alpha-beta model) — tolerance only for float summation noise.
        ASSERT_TRUE(e.ratio().has_value()) << e.proto;
        EXPECT_NEAR(*e.ratio(), 1.0, 1e-9)
            << e.proto << " world " << e.world << " elems " << e.elems;
        // Bytes and messages: exact to the byte, iteration after iteration.
        ASSERT_TRUE(e.predicted_bytes.has_value()) << e.proto;
        ASSERT_TRUE(e.predicted_messages.has_value()) << e.proto;
        EXPECT_EQ(e.measured_bytes % e.iterations, 0) << e.proto;
        EXPECT_EQ(e.measured_bytes / e.iterations, *e.predicted_bytes) << e.proto;
        EXPECT_EQ(e.measured_messages / e.iterations, *e.predicted_messages)
            << e.proto;
    }
}

// ---------------------------------------------------------------------------
// Chaos: telemetry keeps reporting under maskable fault injection without
// perturbing training, and the fault counters surface in the snapshots.

TEST(TelemetryChaos, MaskablePlanKeepsTelemetryAndTrainingBitIdentical) {
    const std::uint64_t seed = chaos::base_seed();
    TinyTrainScenario scenario(4);
    const auto clean = scenario.run_clean(Algorithm::GtopkSsgd);

    comm::FaultInjectingTransport transport(4, chaos::maskable_plan(seed));
    obs::Tracer tracer(4);
    obs::Telemetry telem(4);
    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.transport = &transport;
    cfg.tracer = &tracer;
    cfg.telemetry = &telem;
    cfg.recv_timeout_s = 10.0;
    std::string error;
    train::TrainResult result;
    const Outcome outcome =
        chaos::classify([&] { result = scenario.run(cfg); }, &error);
    ASSERT_EQ(outcome, Outcome::Completed) << error;

    // Maskable adversity stays invisible to the training outcome...
    ASSERT_EQ(result.final_params, clean.final_params);
    // ...the plan actually fired...
    const comm::FaultCounts counts = transport.counts();
    EXPECT_GT(counts.duplicated + counts.reordered + counts.delayed, 0u);
    // ...and the injected faults are visible in the telemetry stream.
    EXPECT_EQ(telem.exchanges(), cfg.epochs * cfg.iters_per_epoch);
    const auto snaps = telem.snapshots();
    ASSERT_FALSE(snaps.empty());
    std::int64_t folded_faults = 0;
    for (const obs::RankIterStats& r : snaps.back().ranks) {
        folded_faults += r.faults_injected;
    }
    EXPECT_GT(folded_faults, 0);
}

// ---------------------------------------------------------------------------
// Elastic regroup: a mid-run kill shrinks the snapshot world, telemetry
// resumes on the survivor view, and the flight recorder writes a parseable
// forensic bundle.

TEST(TelemetryElastic, KillShrinksSnapshotWorldAndWritesFlightBundle) {
    const std::uint64_t seed = chaos::base_seed();
    const std::string bundle_path =
        ::testing::TempDir() + "telemetry_flight_bundle.json";
    TinyTrainScenario scenario(4);
    comm::FaultPlan plan = chaos::seeded_plan(seed);
    plan.kill_at_step(/*rank=*/3, /*step=*/9);  // mid second epoch
    comm::FaultInjectingTransport transport(4, plan);
    comm::MembershipService membership(transport);

    obs::Telemetry telem(4);
    obs::FlightRecorderConfig fcfg;
    fcfg.path = bundle_path;
    obs::FlightRecorder frec(fcfg);
    telem.set_flight_recorder(&frec);

    train::TrainConfig cfg = scenario.config(Algorithm::GtopkSsgd);
    cfg.transport = &transport;
    cfg.membership = &membership;
    cfg.recv_timeout_s = 0.25;
    cfg.checkpoint_every = 4;
    cfg.telemetry = &telem;
    std::string error;
    train::TrainResult result;
    const Outcome outcome =
        chaos::classify([&] { result = scenario.run(cfg); }, &error);
    ASSERT_EQ(outcome, Outcome::Completed) << error;
    ASSERT_EQ(result.final_members, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(result.regroups, 1);

    // The snapshot stream spans the regroup: full world before, survivor
    // world (with the bumped membership epoch) after.
    const auto snaps = telem.snapshots();
    ASSERT_FALSE(snaps.empty());
    EXPECT_EQ(snaps.front().world(), 4);
    EXPECT_EQ(snaps.back().world(), 3);
    EXPECT_EQ(snaps.back().epoch, 1);
    bool saw_regrouped_row = false;
    for (const obs::RankIterStats& r : snaps.back().ranks) {
        if (r.regroups == 1) saw_regrouped_row = true;
    }
    EXPECT_TRUE(saw_regrouped_row);

    // The trainer dumped a "recovered" bundle from the driver thread...
    EXPECT_TRUE(frec.triggered());
    ASSERT_GE(frec.dumps(), 1);

    // ...which parses and tells the story: kill, comm errors, regroup,
    // rollback, and the survivor membership view.
    const util::JsonValue v = util::JsonValue::parse(read_file(bundle_path));
    const util::JsonValue* fr = v.find("flight_recorder");
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->find("reason")->as_string(), "recovered");
    int killed = 0, comm_errors = 0, regroups = 0, rollbacks = 0;
    for (const util::JsonValue& ev : fr->find("events")->as_array()) {
        const std::string& kind = ev.find("kind")->as_string();
        if (kind == "rank_killed") ++killed;
        if (kind == "comm_error") ++comm_errors;
        if (kind == "regroup") ++regroups;
        if (kind == "rollback") ++rollbacks;
    }
    EXPECT_EQ(killed, 1);
    EXPECT_GT(comm_errors, 0);
    EXPECT_EQ(regroups, 3);   // one per survivor
    EXPECT_EQ(rollbacks, 3);  // every survivor rolled back together
    const auto& views = fr->find("membership")->as_array();
    ASSERT_FALSE(views.empty());
    EXPECT_EQ(views.back().find("epoch")->as_int(), 1);
    const auto& members = views.back().find("members")->as_array();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[2].as_int(), 2);
    const auto& bundled_snaps = fr->find("snapshots")->as_array();
    ASSERT_FALSE(bundled_snaps.empty());
    EXPECT_EQ(bundled_snaps.back().find("world")->as_int(), 3);
}

// ---------------------------------------------------------------------------
// Straggler detector unit behavior on synthetic snapshot streams.

obs::IterSnapshot uniform_snapshot(int world, std::int64_t step) {
    obs::IterSnapshot snap;
    snap.step = step;
    for (int r = 0; r < world; ++r) {
        obs::RankIterStats st;
        st.step = step;
        st.physical_rank = r;
        st.logical_rank = r;
        // Small per-rank spread keeps the MAD nonzero so z-scores are
        // well-defined without being interesting.
        st.compute_host_s = 0.010 + 1e-5 * r;
        st.comm_virtual_s = 0.005 + 1e-6 * r;
        snap.ranks.push_back(st);
    }
    return snap;
}

TEST(StragglerDetector, FlagsSustainedSlowRankOnce) {
    obs::StragglerConfig cfg;
    cfg.ewma_alpha = 1.0;  // no smoothing: excursions count immediately
    cfg.patience = 3;
    obs::StragglerDetector det(5, cfg);
    std::vector<obs::StragglerEvent> fired;
    det.set_callback([&](const obs::StragglerEvent& e) { fired.push_back(e); });

    for (std::int64_t step = 0; step < 8; ++step) {
        obs::IterSnapshot snap = uniform_snapshot(5, step);
        snap.ranks[2].compute_host_s = 0.100;  // rank 2 is 10x slow
        det.observe(snap);
    }
    EXPECT_GT(det.compute_z(2), cfg.z_threshold);
    ASSERT_EQ(fired.size(), 1u) << "one event per excursion, not per step";
    EXPECT_EQ(fired.front().physical_rank, 2);
    EXPECT_STREQ(fired.front().phase, "compute");
    EXPECT_GT(fired.front().z, cfg.z_threshold);
    // The healthy ranks stayed unflagged.
    EXPECT_LT(std::abs(det.compute_z(0)), cfg.z_threshold);
    EXPECT_TRUE(det.events().size() == 1);
}

TEST(StragglerDetector, BelowMinWorldRecordsNothing) {
    obs::StragglerDetector det(2);
    for (std::int64_t step = 0; step < 10; ++step) {
        obs::IterSnapshot snap = uniform_snapshot(2, step);
        snap.ranks[1].compute_host_s = 1.0;
        det.observe(snap);
    }
    EXPECT_EQ(det.compute_z(1), 0.0);
    EXPECT_TRUE(det.events().empty());
}

TEST(StragglerDetector, BalancedClusterRaisesNoEvents) {
    obs::StragglerDetector det(6);
    for (std::int64_t step = 0; step < 30; ++step) {
        det.observe(uniform_snapshot(6, step));
    }
    EXPECT_TRUE(det.events().empty());
}

// ---------------------------------------------------------------------------
// Flight recorder unit behavior: bounded rings, idempotent dumps, bundle
// parseability without a tracer.

TEST(FlightRecorder, BoundsEventRingAndDumpsParseableBundle) {
    obs::FlightRecorderConfig cfg;
    cfg.path = ::testing::TempDir() + "flight_recorder_unit.json";
    cfg.max_events = 8;
    obs::FlightRecorder frec(cfg);
    EXPECT_FALSE(frec.triggered());

    for (int i = 0; i < 20; ++i) {
        frec.note_event("comm_error", i % 4, i, 0, "event " + std::to_string(i));
    }
    frec.note_membership(1, {0, 1, 2}, 0, 12);
    obs::IterSnapshot snap = uniform_snapshot(3, 12);
    frec.add_snapshot(snap);

    EXPECT_TRUE(frec.triggered());
    EXPECT_EQ(frec.event_count(), 8u);  // oldest 12 dropped
    EXPECT_EQ(frec.snapshot_count(), 1u);
    ASSERT_TRUE(frec.dump("unit-test"));
    EXPECT_EQ(frec.dumps(), 1);

    const util::JsonValue v = util::JsonValue::parse(read_file(cfg.path));
    const util::JsonValue* fr = v.find("flight_recorder");
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->find("reason")->as_string(), "unit-test");
    EXPECT_EQ(fr->find("events_dropped")->as_int(), 12);
    const auto& events = fr->find("events")->as_array();
    ASSERT_EQ(events.size(), 8u);
    // The ring kept the NEWEST events.
    EXPECT_EQ(events.back().find("step")->as_int(), 19);
    EXPECT_EQ(events.front().find("step")->as_int(), 12);
    // Dumps are idempotent rewrites: a second dump parses the same way.
    ASSERT_TRUE(frec.dump("again"));
    const util::JsonValue v2 = util::JsonValue::parse(read_file(cfg.path));
    EXPECT_EQ(v2.find("flight_recorder")->find("reason")->as_string(), "again");
    EXPECT_EQ(v2.find("flight_recorder")->find("dump_seq")->as_int(), 2);
}

}  // namespace
