// Cross-transport parity + TCP failure-shape suite (ctest label: tcp).
//
// The load-bearing claim: the training math depends only on MODELED virtual
// time (arrival stamps ride inside every frame), so the same seeded
// scenario must produce bit-identical final parameters whether the ranks
// are threads over an InProcTransport or processes over a real TcpTransport
// — for all four algorithms, at P in {2, 4, 8}. On top of that:
//
//   * the recorded message stream over TCP diffs zero against the static
//     Schedule IR (each process can only attest its own outbound edges —
//     recording happens on the sender's thread — so the diff is per-edge);
//   * a mid-run peer death surfaces as a TYPED CommError on every rank
//     (RankKilled on the victim, RecvTimeout/RankKilled on survivors),
//     never a hang — the 120s ctest TIMEOUT is the backstop that turns a
//     hang into a failure;
//   * the standard decorators (ReliableTransport, FaultInjecting,
//     Recording) stack over TcpTransport unchanged;
//   * every link opens through the session handshake, and that first
//     session is not counted or reported as a reconnect;
//   * a rank that is not polling still has its sockets read, so a bulk
//     send to it — or a bulk exchange in both directions — completes,
//     even while connections that never speak sit on its listener;
//   * the listener refuses junk, wrong-orientation and stale RESUMEs
//     without disturbing the link.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/conformance.hpp"
#include "collectives/collectives.hpp"
#include "collectives/schedule.hpp"
#include "comm/tags.hpp"
#include "comm/tcp_frame.hpp"
#include "comm/tcp_transport.hpp"
#include "comm/wire_codec.hpp"
#include "sparse/wire.hpp"
#include "tcp_parity_common.hpp"

namespace gtopk {
namespace {

using tcptest::ParityScenario;

// ---------------------------------------------------------------------------
// Process plumbing

std::string worker_binary() {
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe");
    return (self.parent_path() / "tcp_rank_worker").string();
}

std::string fresh_dir() {
    std::string tmpl = "/tmp/gtopk_tcp_XXXXXX";
    char* dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string("/tmp");
}

pid_t spawn_worker(const std::vector<std::string>& args) {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
}

int wait_exit(pid_t pid) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) return -1;
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

struct WorldRun {
    std::vector<int> exit_codes;          // per rank
    std::vector<std::string> param_files; // per rank
    std::vector<std::string> record_files;
};

/// Launch a full world of tcp_rank_worker processes and wait for all of
/// them. `extra(rank)` appends per-rank flags (kill plans etc.).
WorldRun run_world(const std::string& dir, const std::string& algo, int world,
                   const std::vector<std::string>& common_flags = {},
                   const std::map<int, std::vector<std::string>>& per_rank = {},
                   bool record = false) {
    const int port = tcptest::probe_free_port();
    EXPECT_GT(port, 0);
    const std::string bin = worker_binary();
    WorldRun out;
    std::vector<pid_t> pids;
    for (int r = 0; r < world; ++r) {
        const std::string params =
            dir + "/params_" + algo + "_" + std::to_string(r) + ".bin";
        out.param_files.push_back(params);
        std::vector<std::string> args = {
            bin,     "--rank", std::to_string(r), "--world", std::to_string(world),
            "--port", std::to_string(port), "--algo", algo, "--out", params};
        if (record) {
            const std::string rec = dir + "/edges_" + std::to_string(r) + ".txt";
            out.record_files.push_back(rec);
            args.insert(args.end(), {"--record-out", rec});
        }
        args.insert(args.end(), common_flags.begin(), common_flags.end());
        if (const auto it = per_rank.find(r); it != per_rank.end()) {
            args.insert(args.end(), it->second.begin(), it->second.end());
        }
        pids.push_back(spawn_worker(args));
    }
    for (const pid_t pid : pids) out.exit_codes.push_back(wait_exit(pid));
    return out;
}

// ---------------------------------------------------------------------------
// Frame codec sanity (the adversarial byte-level sweep lives in fuzz_test)

TEST(TcpFrame, RoundTripsMessageExactly) {
    comm::Message msg;
    msg.source = 3;
    msg.tag = comm::kAsyncTagBase + 17;
    msg.epoch = 2;
    msg.arrival_time_s = 0.125;
    msg.payload = {std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}};

    std::vector<std::byte> wire;
    comm::tcp::encode_frame(msg, /*dst=*/1, wire);
    EXPECT_EQ(wire.size(), comm::tcp::kFrameHeaderBytes + msg.payload.size());

    comm::tcp::FrameDecoder dec;
    dec.feed(wire);
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->dst, 1);
    EXPECT_EQ(frame->msg.source, 3);
    EXPECT_EQ(frame->msg.tag, comm::kAsyncTagBase + 17);
    EXPECT_EQ(frame->msg.epoch, 2);
    EXPECT_EQ(frame->msg.arrival_time_s, 0.125);
    EXPECT_EQ(frame->msg.payload, msg.payload);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFrame, DecodesByteDribbleAndBackToBackFrames) {
    comm::Message a;
    a.source = 0;
    a.tag = 7;
    a.payload.assign(100, std::byte{0x55});
    comm::Message b;
    b.source = 1;
    b.tag = 8;

    std::vector<std::byte> wire;
    comm::tcp::encode_frame(a, 2, wire);
    comm::tcp::encode_frame(b, 2, wire);

    comm::tcp::FrameDecoder dec;
    int decoded = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        dec.feed({wire.data() + i, 1});  // worst-case one-byte TCP reads
        while (dec.next()) ++decoded;
    }
    EXPECT_EQ(decoded, 2);
    EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFrame, RejectsJunkMagicAndOversizedLength) {
    comm::Message msg;
    msg.source = 0;
    msg.tag = 1;
    std::vector<std::byte> wire;
    comm::tcp::encode_frame(msg, 1, wire);

    {
        std::vector<std::byte> junk = wire;
        junk[0] = std::byte{0x00};
        comm::tcp::FrameDecoder dec;
        dec.feed(junk);
        EXPECT_THROW(dec.next(), comm::tcp::FrameError);
    }
    {
        // Claimed payload length above the decoder bound must be rejected
        // from the header alone — no attempt to buffer the body.
        std::vector<std::byte> big = wire;
        big[32] = std::byte{0xff};
        big[36] = std::byte{0xff};
        comm::tcp::FrameDecoder dec(/*max_payload=*/1 << 20);
        dec.feed(big);
        EXPECT_THROW(dec.next(), comm::tcp::FrameError);
    }
}

TEST(TcpFrame, EncodeRefusesOversizedPayload) {
    comm::Message msg;
    msg.source = 0;
    msg.tag = 1;
    msg.payload.assign(64, std::byte{0});
    std::vector<std::byte> wire;
    EXPECT_THROW(comm::tcp::encode_frame(msg, 1, wire, /*max_payload=*/63),
                 comm::tcp::FrameError);
}

// ---------------------------------------------------------------------------
// Cross-transport parity: InProc threads vs TCP processes, bit-identical.

struct ParityCase {
    train::Algorithm algo;
    int world;
};

std::string parity_case_name(const ::testing::TestParamInfo<ParityCase>& info) {
    return std::string(tcptest::algorithm_name(info.param.algo)) + "_P" +
           std::to_string(info.param.world);
}

class CrossTransportParity : public ::testing::TestWithParam<ParityCase> {};

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByWorld, CrossTransportParity,
    ::testing::Values(ParityCase{train::Algorithm::DenseSsgd, 2},
                      ParityCase{train::Algorithm::DenseSsgd, 4},
                      ParityCase{train::Algorithm::DenseSsgd, 8},
                      ParityCase{train::Algorithm::TopkSsgd, 2},
                      ParityCase{train::Algorithm::TopkSsgd, 4},
                      ParityCase{train::Algorithm::TopkSsgd, 8},
                      ParityCase{train::Algorithm::GtopkSsgd, 2},
                      ParityCase{train::Algorithm::GtopkSsgd, 4},
                      ParityCase{train::Algorithm::GtopkSsgd, 8},
                      ParityCase{train::Algorithm::NaiveGtopkSsgd, 2},
                      ParityCase{train::Algorithm::NaiveGtopkSsgd, 4},
                      ParityCase{train::Algorithm::NaiveGtopkSsgd, 8}),
    parity_case_name);

TEST_P(CrossTransportParity, FinalParamsBitIdenticalToInProcess) {
    const auto [algo, world] = GetParam();
    ParityScenario scenario(world);
    const train::TrainResult baseline = scenario.run(scenario.config(algo));
    ASSERT_FALSE(baseline.final_params.empty());

    const std::string dir = fresh_dir();
    const WorldRun run = run_world(dir, tcptest::algorithm_name(algo), world);
    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(run.exit_codes[static_cast<std::size_t>(r)], tcptest::kExitOk)
            << "rank " << r << " failed";
        // Every replica, not just the lead: synchronous data-parallel SGD
        // keeps all ranks' parameters identical, and any transport-induced
        // perturbation would show up as a single flipped bit here.
        const std::vector<float> params =
            tcptest::read_params(run.param_files[static_cast<std::size_t>(r)]);
        ASSERT_EQ(params.size(), baseline.final_params.size());
        EXPECT_EQ(0, std::memcmp(params.data(), baseline.final_params.data(),
                                 params.size() * sizeof(float)))
            << "rank " << r << " diverged from the in-process run";
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Conformance over TCP: each process's outbound edges diff zero against the
// static Schedule IR.

class TcpConformance : public ::testing::TestWithParam<train::Algorithm> {};
INSTANTIATE_TEST_SUITE_P(Algorithms, TcpConformance,
                         ::testing::Values(train::Algorithm::DenseSsgd,
                                           train::Algorithm::TopkSsgd,
                                           train::Algorithm::GtopkSsgd,
                                           train::Algorithm::NaiveGtopkSsgd));

TEST_P(TcpConformance, OutboundEdgesMatchStaticScheduleExactly) {
    using collectives::AllgatherAlgo;
    const train::Algorithm algo = GetParam();
    const int world = 4;

    const std::string dir = fresh_dir();
    const WorldRun run = run_world(dir, tcptest::algorithm_name(algo), world,
                                   {"--conformance"}, {}, /*record=*/true);
    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(run.exit_codes[static_cast<std::size_t>(r)], tcptest::kExitOk)
            << "rank " << r;
    }

    // Reconstruct the run's comm plan from the generators alone (mirrors
    // conformance_test.cpp's TrainerConformance predictor).
    ParityScenario scenario(world);
    const train::TrainConfig config = scenario.conformance_config(algo);
    const auto probe = nn::make_mlp(scenario.mlp, config.model_seed);
    const std::size_t m = probe->flat_params().size();
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config.density * static_cast<double>(m))));
    const auto wire = static_cast<std::int64_t>(sparse::wire_size_bytes(k));

    analysis::SchedulePredictor pred(world);
    const std::vector<std::int64_t> wire_per_rank(static_cast<std::size_t>(world),
                                                  wire);
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        for (int it = 0; it < config.iters_per_epoch; ++it) {
            switch (algo) {
                case train::Algorithm::DenseSsgd:
                    pred.add(collectives::allreduce_ring_schedule(
                        world, static_cast<std::int64_t>(m), 4));
                    break;
                case train::Algorithm::TopkSsgd:
                    pred.add(collectives::allgather_schedule(
                        world, wire, 1, AllgatherAlgo::RecursiveDoubling));
                    break;
                case train::Algorithm::GtopkSsgd:
                    pred.add(collectives::gtopk_allreduce_schedule(world, wire));
                    break;
                case train::Algorithm::NaiveGtopkSsgd:
                    pred.add(collectives::allgatherv_schedule(world, wire_per_rank));
                    break;
                default:
                    FAIL() << "unexpected algorithm";
            }
        }
        pred.add(collectives::allgather_schedule(world, 1, 8, AllgatherAlgo::Ring));
    }

    // Over TCP, recording happens on the sender's thread IN the sender's
    // process: rank r's dump attests exactly the (r -> dst) edges. Diff
    // each dump against the predictor's matching edge rows.
    for (int r = 0; r < world; ++r) {
        std::ifstream is(run.record_files[static_cast<std::size_t>(r)]);
        ASSERT_TRUE(is.good()) << run.record_files[static_cast<std::size_t>(r)];
        std::vector<std::vector<std::pair<int, std::int64_t>>> actual(
            static_cast<std::size_t>(world));
        int dst = 0;
        int tag = 0;
        std::int64_t bytes = 0;
        while (is >> dst >> tag >> bytes) {
            ASSERT_GE(dst, 0);
            ASSERT_LT(dst, world);
            actual[static_cast<std::size_t>(dst)].emplace_back(tag, bytes);
        }
        for (int d = 0; d < world; ++d) {
            const auto& expected = pred.edge(r, d);
            const auto& got = actual[static_cast<std::size_t>(d)];
            ASSERT_EQ(got.size(), expected.size())
                << "edge " << r << "->" << d << " message count";
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(got[i].first, expected[i].tag)
                    << "edge " << r << "->" << d << " msg " << i << " ("
                    << expected[i].proto << " round " << expected[i].round << ")";
                if (expected[i].bytes != collectives::kVariableBytes) {
                    EXPECT_EQ(got[i].second, expected[i].bytes)
                        << "edge " << r << "->" << d << " msg " << i;
                }
            }
        }
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Failure shape: a peer dying mid-run must surface as a typed CommError on
// every rank — never a hang (the ctest TIMEOUT backstops that claim).

TEST(TcpFailureShape, PeerDeathIsTypedOnEveryRank) {
    const int world = 4;
    const int victim = 2;
    const std::string dir = fresh_dir();
    const WorldRun run =
        run_world(dir, "gtopk", world, {"--recv-timeout", "5"},
                  {{victim, {"--die-at-step", "5"}}});
    EXPECT_EQ(run.exit_codes[victim], tcptest::kExitRankKilled)
        << "the victim's own thread must observe RankKilled";
    for (int r = 0; r < world; ++r) {
        if (r == victim) continue;
        const int code = run.exit_codes[static_cast<std::size_t>(r)];
        EXPECT_TRUE(code == tcptest::kExitRecvTimeout ||
                    code == tcptest::kExitRankKilled)
            << "rank " << r << " exited " << code
            << " (wanted a typed CommError: 42 RecvTimeout / 43 RankKilled)";
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Decorator composition: ReliableTransport (+ Recording in the conformance
// test above, + FaultInjecting in the kill test) stacks over TcpTransport
// unchanged. Cross-process the ack/recovery plane runs the full wire ARQ —
// sequence envelopes out, cumulative-ack and gap-pull frames back
// (DESIGN.md §15) — which on a fault-free fabric must still be a bit-exact
// identity. tcp_recovery_test.cpp drives the same stack through seeded
// drops, socket kills and rank death.

TEST(TcpDecorators, ReliableEnvelopeOverTcpIsBitExact) {
    const int world = 4;
    ParityScenario scenario(world);
    const train::TrainResult baseline =
        scenario.run(scenario.config(train::Algorithm::GtopkSsgd));

    const std::string dir = fresh_dir();
    const WorldRun run = run_world(dir, "gtopk", world, {"--reliable"});
    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(run.exit_codes[static_cast<std::size_t>(r)], tcptest::kExitOk)
            << "rank " << r;
        const std::vector<float> params =
            tcptest::read_params(run.param_files[static_cast<std::size_t>(r)]);
        ASSERT_EQ(params.size(), baseline.final_params.size());
        EXPECT_EQ(0, std::memcmp(params.data(), baseline.final_params.data(),
                                 params.size() * sizeof(float)))
            << "rank " << r;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Bootstrap: a world of TcpTransports on threads of one process (as the
// benchmark harness builds it). The constructor returns once the session
// handshake has opened every link; no link has been resumed yet, and one
// frame crosses each link in both directions.

TEST(TcpBootstrap, HandshakeOpensEveryLinkWithoutCountingAReconnect) {
    const int world = 4;
    const int port = tcptest::probe_free_port();
    ASSERT_GT(port, 0);
    std::vector<std::uint64_t> reconnects(world, 99);
    std::vector<std::size_t> reported(world, 99);
    std::vector<std::vector<int>> got(world);  // sources heard, per rank
    std::vector<std::string> errors(world);
    std::barrier done(world);
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
            const auto ri = static_cast<std::size_t>(r);
            try {
                comm::TcpConfig cfg;
                cfg.rank = r;
                cfg.world_size = world;
                cfg.rendezvous_port = port;
                cfg.connect_timeout_s = 20.0;
                comm::TcpTransport t(cfg);
                reconnects[ri] = t.reconnects();
                reported[ri] = t.take_reconnected(r).size();
                for (int peer = 0; peer < world; ++peer) {
                    if (peer == r) continue;
                    comm::Message m;
                    m.source = r;
                    m.tag = comm::kTagTestData;
                    m.payload = {static_cast<std::byte>(r)};
                    t.deliver(peer, std::move(m));
                }
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(20);
                for (int peer = 0; peer < world; ++peer) {
                    if (peer == r) continue;
                    std::optional<comm::Message> m;
                    while (!(m = t.try_receive(r, peer, comm::kTagTestData)) &&
                           std::chrono::steady_clock::now() < deadline) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    }
                    if (m && m->payload == std::vector<std::byte>{
                                               static_cast<std::byte>(peer)}) {
                        got[ri].push_back(peer);
                    }
                }
                // Every rank has heard from every peer before any link closes.
                done.arrive_and_wait();
                t.shutdown();
                return;
            } catch (const std::exception& e) {
                errors[ri] = e.what();
            }
            done.arrive_and_drop();
        });
    }
    for (std::thread& t : threads) t.join();
    for (int r = 0; r < world; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        ASSERT_EQ(errors[ri], "") << "rank " << r;
        EXPECT_EQ(reconnects[ri], 0u) << "rank " << r;
        EXPECT_EQ(reported[ri], 0u) << "rank " << r;
        std::vector<int> want;
        for (int peer = 0; peer < world; ++peer) {
            if (peer != r) want.push_back(peer);
        }
        EXPECT_EQ(got[ri], want) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Data plane: a rank thread reads its own sockets when it polls for a
// message, and the receiver thread reads them only when the rank thread has
// not for a short window. A rank that is not polling — computing, or
// blocked in a bulk send — must still have its inbound bytes read, or a
// bulk sender blocks on a full socket forever.

constexpr std::size_t kBulkBytes = 16u << 20;  // far above loopback buffers

std::vector<std::byte> bulk_payload(int sender) {
    std::vector<std::byte> p(kBulkBytes);
    for (std::size_t i = 0; i < p.size(); ++i) {
        p[i] = static_cast<std::byte>(i * 31u + static_cast<std::size_t>(sender));
    }
    return p;
}

/// Runs `body(rank, transport)` on one thread per rank of a P = 2 world of
/// TcpTransports (built as in TcpBootstrap, rendezvous on `port`, which
/// stays rank 0's listener) and returns each rank's error, "" when it
/// finished cleanly. If the ranks are not done within `budget`, every
/// transport is shut down: a deliver stuck on a full socket then fails
/// instead of hanging the test, which reports the timeout.
std::vector<std::string> run_pair(
    const std::function<void(int, comm::TcpTransport&)>& body,
    std::chrono::seconds budget, int port = tcptest::probe_free_port()) {
    constexpr int kWorld = 2;
    std::array<std::optional<comm::TcpTransport>, kWorld> transports;
    std::array<std::atomic<bool>, kWorld> built{};
    std::vector<std::string> errors(kWorld);
    std::mutex mu;
    std::condition_variable cv;
    int finished = 0;
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
        threads.emplace_back([&, r] {
            const auto ri = static_cast<std::size_t>(r);
            try {
                comm::TcpConfig cfg;
                cfg.rank = r;
                cfg.world_size = kWorld;
                cfg.rendezvous_port = port;
                cfg.connect_timeout_s = 20.0;
                transports[ri].emplace(cfg);
                built[ri].store(true);
                body(r, *transports[ri]);
            } catch (const std::exception& e) {
                errors[ri] = e.what();
            }
            std::lock_guard<std::mutex> lock(mu);
            ++finished;
            cv.notify_all();
        });
    }
    bool timed_out = false;
    {
        std::unique_lock<std::mutex> lock(mu);
        timed_out = !cv.wait_for(lock, budget, [&] { return finished == kWorld; });
    }
    if (timed_out) {
        for (int r = 0; r < kWorld; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            if (built[ri].load()) transports[ri]->shutdown();
        }
    }
    for (std::thread& t : threads) t.join();
    if (timed_out) errors.push_back("ranks still running after the budget");
    return errors;
}

/// Poll rank `r`'s transport for `peer`'s test frame for up to 20 s.
std::optional<comm::Message> await_frame(comm::TcpTransport& t, int r, int peer) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
        if (auto m = t.try_receive(r, peer, comm::kTagTestData)) return m;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return std::nullopt;
}

TEST(TcpDataPlane, PeerThatNeverPollsStillDrainsBulkSends) {
    std::atomic<bool> delivered{false};
    std::optional<comm::Message> got;
    const auto errors = run_pair(
        [&](int r, comm::TcpTransport& t) {
            if (r == 1) {
                comm::Message m;
                m.source = 1;
                m.tag = comm::kTagTestData;
                m.payload = bulk_payload(1);
                t.deliver(0, std::move(m));
                delivered.store(true);
                return;
            }
            // Rank 0 does not poll until the bulk deliver has returned.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (!delivered.load() && std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            if (!delivered.load()) throw std::runtime_error("deliver never returned");
            got = await_frame(t, 0, 1);
        },
        std::chrono::seconds(40));
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    EXPECT_TRUE(delivered.load());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->source, 1);
    EXPECT_TRUE(got->payload == bulk_payload(1));
}

TEST(TcpDataPlane, SimultaneousBulkExchangeDoesNotDeadlock) {
    std::barrier both_polled(2);
    std::array<std::optional<comm::Message>, 2> got;
    const auto errors = run_pair(
        [&](int r, comm::TcpTransport& t) {
            const int peer = 1 - r;
            // A miss reads the sockets on this thread, so the receiver thread
            // leaves them alone: both ranks start inside the window.
            EXPECT_FALSE(t.try_receive(r, peer, comm::kTagTestData).has_value());
            both_polled.arrive_and_wait();
            comm::Message m;
            m.source = r;
            m.tag = comm::kTagTestData;
            m.payload = bulk_payload(r);
            t.deliver(peer, std::move(m));
            got[static_cast<std::size_t>(r)] = await_frame(t, r, peer);
        },
        std::chrono::seconds(40));
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    for (int r = 0; r < 2; ++r) {
        const auto& m = got[static_cast<std::size_t>(r)];
        ASSERT_TRUE(m.has_value()) << "rank " << r;
        EXPECT_TRUE(m->payload == bulk_payload(1 - r)) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Session listener: every handshake runs non-blocking on the receiver
// thread, which is also the fallback reader, so a connection that never
// speaks cannot stall the reads, and a RESUME the acceptor must refuse
// only closes its own connection.

/// A raw loopback connection to `port`, or -1.
int connect_raw(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Wait up to 20 s for another rank's thread to raise `flag`.
bool await_flag(const std::atomic<bool>& flag) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return flag.load();
}

/// True if the peer closes `fd` before `deadline` without sending a byte.
bool closed_silently(int fd, std::chrono::steady_clock::time_point deadline) {
    for (;;) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) return false;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
        std::byte b{};
        return ::recv(fd, &b, 1, 0) == 0;
    }
}

TEST(TcpDataPlane, ReceiverSleepsWhileTheRankThreadDrains) {
    // A rank that keeps polling reads its own sockets; the receiver thread
    // backs off instead of waking at the end of every 2 ms window (about
    // 250 passes in the 500 ms below). Once the rank stops polling, the
    // receiver still reads a bulk send for it.
    std::array<std::uint64_t, 2> wakeups{};
    std::atomic<bool> drained{false};
    std::atomic<bool> delivered{false};
    std::optional<comm::Message> got;
    const auto errors = run_pair(
        [&](int r, comm::TcpTransport& t) {
            const auto w0 = t.receiver_wakeups();
            const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
            while (std::chrono::steady_clock::now() < until) {
                if (t.try_receive(r, 1 - r, comm::kTagTestData)) {
                    throw std::runtime_error("unexpected frame");
                }
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            wakeups[static_cast<std::size_t>(r)] = t.receiver_wakeups() - w0;
            if (r == 0) {
                drained.store(true);
                if (!await_flag(delivered)) throw std::runtime_error("deliver never returned");
                got = await_frame(t, 0, 1);
                return;
            }
            if (!await_flag(drained)) throw std::runtime_error("rank 0 never drained");
            comm::Message m;
            m.source = 1;
            m.tag = comm::kTagTestData;
            m.payload = bulk_payload(1);
            t.deliver(0, std::move(m));
            delivered.store(true);
        },
        std::chrono::seconds(40));
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    for (int r = 0; r < 2; ++r) {
        EXPECT_LT(wakeups[static_cast<std::size_t>(r)], 100u) << "rank " << r;
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->payload == bulk_payload(1));
}

TEST(TcpBootstrap, SilentListenerConnectionsDoNotStallTheReader) {
    const int port = tcptest::probe_free_port();
    // The acceptor's handshake deadline (1 s) plus slack for a loaded host.
    constexpr auto kCloseBudget = std::chrono::seconds(3);
    std::atomic<bool> delivered{false};
    std::atomic<bool> checked{false};
    double baseline_ms = -1.0;
    double deliver_ms = -1.0;
    std::vector<bool> closed;
    std::array<std::optional<comm::Message>, 2> got;
    const auto errors = run_pair(
        [&](int r, comm::TcpTransport& t) {
            if (r == 0) {
                // Rank 0 does not poll until the bulk deliver has returned,
                // and stays up until rank 1 has watched the silent sockets.
                if (!await_flag(delivered)) throw std::runtime_error("deliver never returned");
                for (auto& m : got) m = await_frame(t, 0, 1);
                if (!await_flag(checked)) throw std::runtime_error("silent sockets unchecked");
                return;
            }
            const auto timed_deliver = [&t] {
                comm::Message m;
                m.source = 1;
                m.tag = comm::kTagTestData;
                m.payload = bulk_payload(1);
                const auto start = std::chrono::steady_clock::now();
                t.deliver(0, std::move(m));
                return std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                    .count();
            };
            // The same deliver without silent connections: what the host
            // (or a sanitizer) makes 16 MiB cost here.
            baseline_ms = timed_deliver();
            std::array<int, 3> silent{};
            for (int& fd : silent) fd = connect_raw(port);
            const auto opened = std::chrono::steady_clock::now();
            deliver_ms = timed_deliver();
            delivered.store(true);
            for (const int fd : silent) {
                closed.push_back(fd >= 0 && closed_silently(fd, opened + kCloseBudget));
                if (fd >= 0) ::close(fd);
            }
            checked.store(true);
        },
        std::chrono::seconds(40), port);
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    EXPECT_GE(baseline_ms, 0.0);
    EXPECT_LT(deliver_ms, baseline_ms + 500.0)
        << "three silent connections stalled the reader (" << baseline_ms
        << " ms without them)";
    for (const auto& m : got) {
        ASSERT_TRUE(m.has_value());
        EXPECT_TRUE(m->payload == bulk_payload(1));
    }
    EXPECT_EQ(closed, std::vector<bool>(3, true))
        << "rank 0 must close each silent connection at its handshake deadline";
}

TEST(TcpBootstrap, ListenerRefusesBadResumes) {
    const int port = tcptest::probe_free_port();
    constexpr std::uint32_t kResumeMagic = 0x4754524Du;  // "GTRM"
    const auto resume = [](std::uint32_t magic, int rank, std::uint64_t session) {
        std::array<std::byte, 16> out{};
        comm::put_u64(comm::put_u32(comm::put_u32(out.data(), magic),
                                    static_cast<std::uint32_t>(rank)),
                      session);
        return out;
    };
    std::array<std::byte, 16> junk{};
    junk.fill(std::byte{0xA5});
    const std::array<std::array<std::byte, 16>, 3> bad = {
        junk,
        resume(kResumeMagic, 0, 2),  // rank 0 "dialing" itself: wrong orientation
        resume(kResumeMagic, 1, 1),  // rank 1's current session: stale
    };
    std::atomic<bool> refused_checked{false};
    std::vector<bool> refused;
    std::array<std::uint64_t, 2> reconnects{99, 99};
    std::array<std::optional<comm::Message>, 2> got;
    const auto errors = run_pair(
        [&](int r, comm::TcpTransport& t) {
            const int peer = 1 - r;
            if (r == 1) {
                for (const auto& hello : bad) {
                    const int fd = connect_raw(port);
                    const bool sent =
                        fd >= 0 && ::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) ==
                                       static_cast<ssize_t>(hello.size());
                    refused.push_back(
                        sent && closed_silently(fd, std::chrono::steady_clock::now() +
                                                        std::chrono::seconds(3)));
                    if (fd >= 0) ::close(fd);
                }
                refused_checked.store(true);
            } else if (!await_flag(refused_checked)) {
                throw std::runtime_error("bad RESUMEs never sent");
            }
            comm::Message m;
            m.source = r;
            m.tag = comm::kTagTestData;
            m.payload = {static_cast<std::byte>(r)};
            t.deliver(peer, std::move(m));
            got[static_cast<std::size_t>(r)] = await_frame(t, r, peer);
            reconnects[static_cast<std::size_t>(r)] = t.reconnects();
        },
        std::chrono::seconds(40), port);
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    EXPECT_EQ(refused, std::vector<bool>(3, true))
        << "each bad RESUME must be closed without a RESUME_OK";
    for (int r = 0; r < 2; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        ASSERT_TRUE(got[ri].has_value()) << "rank " << r;
        EXPECT_EQ(got[ri]->payload, std::vector<std::byte>{static_cast<std::byte>(1 - r)})
            << "rank " << r;
        EXPECT_EQ(reconnects[ri], 0u) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Env bootstrap contract (what gtopkrun exports).

TEST(TcpConfigFromEnv, ParsesAndValidatesRendezvous) {
    ::setenv("GTOPK_RANK", "3", 1);
    ::setenv("GTOPK_WORLD_SIZE", "8", 1);
    ::setenv("GTOPK_RENDEZVOUS", "10.0.0.1:29400", 1);
    const auto cfg = comm::TcpTransport::config_from_env();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->rank, 3);
    EXPECT_EQ(cfg->world_size, 8);
    EXPECT_EQ(cfg->rendezvous_host, "10.0.0.1");
    EXPECT_EQ(cfg->rendezvous_port, 29400);

    ::setenv("GTOPK_RENDEZVOUS", "no-port-here", 1);
    EXPECT_THROW(comm::TcpTransport::config_from_env(), std::invalid_argument);

    // Every value is a whole decimal; the error names the variable.
    const auto rejects = [](const char* var, const char* value) {
        ::setenv("GTOPK_RANK", "3", 1);
        ::setenv("GTOPK_WORLD_SIZE", "8", 1);
        ::setenv("GTOPK_RENDEZVOUS", "10.0.0.1:29400", 1);
        ::setenv(var, value, 1);
        try {
            (void)comm::TcpTransport::config_from_env();
        } catch (const std::invalid_argument& e) {
            return std::string(e.what()).find(var) != std::string::npos;
        }
        return false;
    };
    EXPECT_TRUE(rejects("GTOPK_RANK", "abc"));
    EXPECT_TRUE(rejects("GTOPK_RANK", "3x"));
    EXPECT_TRUE(rejects("GTOPK_RANK", ""));
    EXPECT_TRUE(rejects("GTOPK_RANK", " 3"));
    EXPECT_TRUE(rejects("GTOPK_WORLD_SIZE", "8.0"));
    EXPECT_TRUE(rejects("GTOPK_WORLD_SIZE", "99999999999"));
    EXPECT_TRUE(rejects("GTOPK_RENDEZVOUS", "host:29400x"));
    EXPECT_TRUE(rejects("GTOPK_RENDEZVOUS", "host:"));

    ::unsetenv("GTOPK_RANK");
    ::unsetenv("GTOPK_WORLD_SIZE");
    ::unsetenv("GTOPK_RENDEZVOUS");
    EXPECT_FALSE(comm::TcpTransport::config_from_env().has_value());
}

}  // namespace
}  // namespace gtopk
