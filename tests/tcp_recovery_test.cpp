// Self-healing over real TCP (ctest label: tcp) — the end-to-end gates for
// the wire ARQ + reconnect + elastic-regroup stack:
//
//   * a 10% seeded drop/corrupt plan injected UNDER the reliable layer in
//     every process (launched through gtopkrun, the production path) is
//     fully masked by the wire ARQ: final params bit-identical to the
//     fault-free in-process baseline;
//   * scheduled SOCKET chaos — hard connection kills and mid-frame
//     truncations — forces real reconnect/session-resume cycles under
//     load, and the run is STILL bit-identical (the resumed link replays
//     the lost frames from the ARQ buffer);
//   * a real mid-run SIGKILL of one rank (uncatchable, kernel-level, no
//     farewell) routes the survivors through receive deadlines, wire
//     membership regroup, checkpoint rollback and a converged finish, with
//     a parseable flight-recorder bundle explaining the incident.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tcp_parity_common.hpp"

namespace gtopk {
namespace {

using tcptest::ParityScenario;

// ---------------------------------------------------------------------------
// Process plumbing (same shape as tcp_transport_test.cpp).

std::string binary_beside_self(const char* name) {
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe");
    return (self.parent_path() / name).string();
}

std::string gtopkrun_binary() {
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe");
    return (self.parent_path().parent_path() / "tools" / "gtopkrun").string();
}

std::string fresh_dir() {
    std::string tmpl = "/tmp/gtopk_tcprec_XXXXXX";
    char* dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string("/tmp");
}

pid_t spawn(const std::vector<std::string>& args) {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
}

/// Exit code, or 128+sig for a signal death (so SIGKILL reads as 137).
int wait_exit(pid_t pid) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) return -1;
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

/// Parse a worker --stats-out dump: "key value" lines plus one
/// "members a b c..." line.
struct WorkerStats {
    std::map<std::string, double> scalar;
    std::vector<int> members;

    double get(const std::string& key) const {
        const auto it = scalar.find(key);
        EXPECT_NE(it, scalar.end()) << "stats file missing key: " << key;
        return it == scalar.end() ? 0.0 : it->second;
    }
};

WorkerStats read_stats(const std::string& path) {
    WorkerStats st;
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "members") {
            int m = 0;
            while (ls >> m) st.members.push_back(m);
        } else if (!key.empty()) {
            double v = 0;
            ls >> v;
            st.scalar[key] = v;
        }
    }
    return st;
}

void expect_params_match_baseline(const std::string& file,
                                  const std::vector<float>& baseline,
                                  const std::string& who) {
    const std::vector<float> params = tcptest::read_params(file);
    ASSERT_EQ(params.size(), baseline.size()) << who;
    EXPECT_EQ(0, std::memcmp(params.data(), baseline.data(),
                             params.size() * sizeof(float)))
        << who << " diverged from the fault-free in-process baseline";
}

// ---------------------------------------------------------------------------
// Wire ARQ under a 10% drop + 10% corruption plan, production launch path.

TEST(TcpRecovery, TenPercentDropAndCorruptionOverGtopkrunIsBitIdentical) {
    const int world = 4;
    ParityScenario scenario(world);
    const train::TrainResult baseline =
        scenario.run(scenario.config(train::Algorithm::GtopkSsgd));
    ASSERT_FALSE(baseline.final_params.empty());

    const std::string dir = fresh_dir();
    // gtopkrun wires rank/world/rendezvous through the environment; the
    // worker suffixes output paths with ".<rank>".
    const int code = wait_exit(spawn(
        {gtopkrun_binary(), "-n", std::to_string(world), "--",
         binary_beside_self("tcp_rank_worker"), "--algo", "gtopk",
         "--out", dir + "/params.bin", "--stats-out", dir + "/stats.txt",
         "--reliable", "--drop-prob", "0.10", "--corrupt-prob", "0.10",
         "--fault-seed", "11"}));
    ASSERT_EQ(code, 0) << "gtopkrun reported a failing rank";

    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;
    for (int r = 0; r < world; ++r) {
        std::string sfx = ".";
        sfx += std::to_string(r);
        expect_params_match_baseline(dir + "/params.bin" + sfx,
                                     baseline.final_params,
                                     "rank " + std::to_string(r));
        const WorkerStats st = read_stats(dir + "/stats.txt" + sfx);
        drops += static_cast<std::uint64_t>(st.get("injected_drops"));
        corruptions +=
            static_cast<std::uint64_t>(st.get("injected_corruptions"));
    }
    // Guard against a vacuous pass: the plan really injected faults, and
    // the ARQ really recovered every one of them.
    EXPECT_GT(drops, 0u);
    EXPECT_GT(corruptions, 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Socket chaos: scheduled connection kills + mid-frame truncations force the
// reconnect/session-resume path under load; the resumed link must replay
// lost frames from the ARQ buffer with zero trajectory impact.

TEST(TcpRecovery, SeededSocketKillsReconnectAndStayBitIdentical) {
    const int world = 4;
    ParityScenario scenario(world);
    const train::TrainResult baseline =
        scenario.run(scenario.config(train::Algorithm::GtopkSsgd));

    const std::string dir = fresh_dir();
    const int port = tcptest::probe_free_port();
    ASSERT_GT(port, 0);
    const std::string bin = binary_beside_self("tcp_rank_worker");
    std::vector<pid_t> pids;
    for (int r = 0; r < world; ++r) {
        pids.push_back(spawn(
            {bin, "--rank", std::to_string(r), "--world", std::to_string(world),
             "--port", std::to_string(port), "--algo", "gtopk",
             "--out", dir + "/params_" + std::to_string(r) + ".bin",
             "--stats-out", dir + "/stats_" + std::to_string(r) + ".txt",
             // Bounded burst: sustained periodic kills can outpace the ARQ
             // replay forever (each connection incarnation delivers fewer
             // frames than the growing backlog); 5 faults per rank is a
             // transient storm the link must fully absorb.
             "--reliable", "--socket-kill-every", "25",
             "--socket-truncate-every", "37", "--socket-max-faults", "5"}));
    }
    std::uint64_t reconnects = 0;
    std::uint64_t socket_faults = 0;
    for (int r = 0; r < world; ++r) {
        ASSERT_EQ(wait_exit(pids[static_cast<std::size_t>(r)]), tcptest::kExitOk)
            << "rank " << r;
        expect_params_match_baseline(dir + "/params_" + std::to_string(r) + ".bin",
                                     baseline.final_params,
                                     "rank " + std::to_string(r));
        const WorkerStats st =
            read_stats(dir + "/stats_" + std::to_string(r) + ".txt");
        reconnects += static_cast<std::uint64_t>(st.get("reconnects"));
        socket_faults += static_cast<std::uint64_t>(st.get("socket_faults"));
    }
    // The chaos really hit connections and the links really resumed —
    // bit-identity above is only meaningful because of this.
    EXPECT_GT(socket_faults, 0u);
    EXPECT_GT(reconnects, 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Real SIGKILL mid-run: survivors regroup over the wire, roll back to the
// agreed checkpoint, converge on the 3-rank world, and the flight recorder
// explains what happened.

TEST(TcpRecovery, MidRunSigkillSurvivorsRegroupConvergeAndDumpFlightBundle) {
    const int world = 4;
    const int victim = 3;
    const std::string dir = fresh_dir();
    const int port = tcptest::probe_free_port();
    ASSERT_GT(port, 0);
    const std::string bin = binary_beside_self("tcp_rank_worker");
    std::vector<pid_t> pids;
    for (int r = 0; r < world; ++r) {
        std::vector<std::string> args = {
            bin, "--rank", std::to_string(r), "--world", std::to_string(world),
            "--port", std::to_string(port), "--algo", "gtopk",
            "--out", dir + "/params_" + std::to_string(r) + ".bin",
            "--stats-out", dir + "/stats_" + std::to_string(r) + ".txt",
            "--reliable", "--elastic",
            // Telemetry's stats collective is all-ranks: every process
            // attaches it (the victim's bundle simply never hits disk).
            "--flight-out", dir + "/flight_" + std::to_string(r) + ".json"};
        if (r == victim) {
            // Dies by raising SIGKILL at the step-9 iteration boundary —
            // mid second epoch, past the step-8 checkpoint.
            args.insert(args.end(), {"--sigkill-at-step", "9"});
        }
        pids.push_back(spawn(args));
    }

    std::vector<int> codes;
    for (const pid_t pid : pids) codes.push_back(wait_exit(pid));
    EXPECT_EQ(codes[victim], 137) << "victim must die by real SIGKILL";

    std::vector<std::vector<float>> survivor_params;
    for (int r = 0; r < world; ++r) {
        if (r == victim) continue;
        ASSERT_EQ(codes[static_cast<std::size_t>(r)], tcptest::kExitOk)
            << "survivor rank " << r << " did not finish the run";
        survivor_params.push_back(
            tcptest::read_params(dir + "/params_" + std::to_string(r) + ".bin"));

        const WorkerStats st =
            read_stats(dir + "/stats_" + std::to_string(r) + ".txt");
        EXPECT_GE(st.get("regroups"), 1) << "rank " << r;
        EXPECT_GE(st.get("epoch"), 1) << "rank " << r;
        EXPECT_EQ(st.members, (std::vector<int>{0, 1, 2})) << "rank " << r;
        // "Converged": the run kept training after the regroup.
        EXPECT_LT(st.get("loss_last"), st.get("loss_first"))
            << "rank " << r;

        // The flight bundle is parseable JSON containing the incident
        // narrative (comm error -> regroup -> new membership view).
        std::ifstream fb(dir + "/flight_" + std::to_string(r) + ".json");
        ASSERT_TRUE(fb.good()) << "rank " << r << " wrote no flight bundle";
        std::stringstream ss;
        ss << fb.rdbuf();
        const std::string bundle = ss.str();
        EXPECT_EQ(bundle.front(), '{') << "rank " << r;
        EXPECT_NE(bundle.find("\"regroup\""), std::string::npos) << "rank " << r;
        EXPECT_NE(bundle.find("\"dump_seq\""), std::string::npos) << "rank " << r;
    }
    // Post-regroup synchronous SGD on the survivor world: every survivor
    // replica must be bit-identical (§12 consistency contract, now across
    // real processes).
    ASSERT_EQ(survivor_params.size(), 3u);
    for (std::size_t i = 1; i < survivor_params.size(); ++i) {
        EXPECT_EQ(survivor_params[i], survivor_params[0])
            << "survivor replica divergence at member index " << i;
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gtopk
