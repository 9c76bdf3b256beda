// TcpTransport: the real-socket Transport — one OS process per rank, a
// full TCP mesh between them, the same interface the in-process cluster
// runs on (transport.hpp), so every decorator (FaultInjectingTransport,
// ReliableTransport, RecordingTransport, telemetry) stacks over it
// unchanged.
//
// Bootstrap (rendezvous): rank 0 listens on the rendezvous port; every
// other rank connects there (with retry inside connect_timeout_s, so start
// order does not matter), sends a Hello{rank, listen_port}, and receives
// the address map (every rank's IP:port) back. The rendezvous connection
// itself becomes the permanent rank0<->peer data link; the rest of the
// mesh is completed peer-to-peer — rank j dials every rank i with
// 0 < i < j at its advertised address, identifying itself with the same
// Hello. A rank that dies mid-bootstrap surfaces on every survivor as a
// typed CommError naming the missing peer (accept/connect deadline ->
// RecvTimeout, a half-open link -> RankKilled), never a generic failure.
//
// Data plane: one frame per Message (comm/tcp_frame.hpp), written
// blocking under a per-peer mutex; a single background receiver thread
// poll()s every peer socket, feeds each connection's FrameDecoder, and
// pushes decoded messages into the local rank's Mailbox — the identical
// matching machinery the in-process transport uses, polled through
// try_receive by the rank's handles — while socket-level timeouts
// (SO_RCVTIMEO during bootstrap and handshakes, the poll() tick afterwards)
// bound every blocking socket operation the background threads perform.
//
// Failure model (self-healing): EOF, ECONNRESET/EPIPE, a mid-frame
// disconnect or a malformed frame downs the LINK, not the peer. Link
// lifecycle is the pure FSM in comm/reconnect_fsm.hpp: the higher rank of
// the pair re-dials the lower one's persistent listener (rank 0 keeps the
// rendezvous listener, everyone else their mesh listener) with capped
// exponential backoff, carrying a RESUME hello that proposes a strictly
// advancing session id; the acceptor validates it (stale dials from
// abandoned incarnations are rejected) and answers RESUME_OK. While a link
// is kDown, deliver() to that peer silently drops the frame — the wire ARQ
// above (ReliableTransport) buffers every payload and replays the gap the
// moment take_reconnected() reports the resume. Only when the reconnect
// budget is exhausted does the link turn kDead (absorbing): rank_alive()
// goes false, a send throws CommError(RankKilled), a blocked receiver
// surfaces CommError(RecvTimeout) through its deadline, and the membership
// layer takes over. Typed errors, never a hang.
//
// Deterministic socket chaos: TcpConfig::socket_faults seeds a per-peer
// injector inside deliver()'s write path — scheduled connection kills,
// truncated frames (half a frame then a hard shutdown), stalled writes —
// so reconnect-under-load is testable without real network flakiness.
//
// This transport addresses ONE rank per process: receive/begin_epoch/
// pending_with_tag_at_least/take_reconnected are only valid for
// local_rank() (the mailbox of any other rank lives in another process).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/reconnect_fsm.hpp"
#include "comm/tcp_frame.hpp"
#include "comm/transport.hpp"
#include "util/rng.hpp"

namespace gtopk::comm {

/// Deterministic socket-level fault plan: CONNECTION chaos (the layer below
/// FaultInjectingTransport's message chaos). Applied per frame, inside the
/// per-peer send lock, from a per-peer stream forked off `seed` — the fault
/// schedule is a pure function of (seed, per-peer frame ordinals).
struct SocketFaultPlan {
    std::uint64_t seed = 1;
    /// Hard-kill the connection instead of writing every Nth frame to a
    /// peer (1-based ordinal divisible by N). 0 = off. The frame is lost;
    /// the link goes kDown and the reconnect FSM takes over.
    std::uint64_t kill_every_n = 0;
    /// Write only the first half of every Nth frame, then hard-kill the
    /// connection — the receiver sees a mid-frame disconnect. 0 = off.
    std::uint64_t truncate_every_n = 0;
    /// Stall (sleep) for `stall_s` before writing, with this probability.
    double stall_prob = 0.0;
    double stall_s = 0.0;
    /// Restrict the plan to one destination rank; -1 = all peers.
    int only_peer = -1;
    /// Stop injecting after this many faults (whole transport, all peers).
    /// 0 = unlimited. Sustained periodic kills can outpace the ARQ replay
    /// forever (each connection incarnation delivers fewer frames than the
    /// growing backlog) — a bounded burst models real transient chaos and
    /// guarantees the run eventually drains.
    std::uint64_t max_faults = 0;

    bool enabled() const {
        return kill_every_n != 0 || truncate_every_n != 0 || stall_prob > 0.0;
    }
};

struct TcpConfig {
    int rank = -1;
    int world_size = 0;
    /// Rendezvous (rank 0) address every rank dials during bootstrap.
    std::string rendezvous_host = "127.0.0.1";
    int rendezvous_port = 0;
    /// Bound on the whole bootstrap: connect retries, hello exchange,
    /// address-map reads all complete within this budget or construction
    /// throws a CommError naming the missing peer.
    double connect_timeout_s = 30.0;
    /// Per-frame payload ceiling enforced on both sides of every link.
    std::uint64_t max_frame_payload = tcp::kMaxFramePayload;
    /// Reconnect budget/backoff for downed links (comm/reconnect_fsm.hpp).
    fsm::ReconnectPolicy reconnect;
    /// Seeded connection-level chaos (kills, truncations, stalls).
    SocketFaultPlan socket_faults;
};

class TcpTransport final : public Transport {
public:
    /// Rendezvous + mesh bootstrap; blocks until every peer link is up or
    /// connect_timeout_s expires (CommError naming the missing peer).
    explicit TcpTransport(const TcpConfig& config);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    /// Build a config from the launcher's environment: GTOPK_RANK,
    /// GTOPK_WORLD_SIZE, GTOPK_RENDEZVOUS ("host:port"). nullopt when the
    /// variables are absent (not launched under tools/gtopkrun).
    static std::optional<TcpConfig> config_from_env();

    int world_size() const override { return world_; }
    int local_rank() const { return rank_; }

    void deliver(int dst, Message msg) override;
    std::optional<Message> try_receive(int rank, int source, int tag) override;
    void shutdown() override;
    void begin_epoch(int rank, int epoch) override;
    /// False only once a peer's link is kDead (reconnect budget exhausted);
    /// a link merely kDown is still alive — the resume may land any moment.
    bool rank_alive(int rank) const override;
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override;
    /// Each rank is its own process: a decorator's per-rank state is NOT
    /// shared, so ReliableTransport switches to its wire ack plane — acks,
    /// gap pulls and reconnect-triggered replays travel as real frames
    /// (see DESIGN.md §15/§17).
    bool shared_memory_fabric() const override { return false; }
    /// Peers whose link re-established (session resume) since the last
    /// call. The reliable layer drains this from its pump and immediately
    /// replays the ARQ gap with each returned peer.
    std::vector<int> take_reconnected(int rank) override;

    /// Successful session resumes (either side) since construction.
    std::uint64_t reconnects() const {
        return reconnects_.load(std::memory_order_relaxed);
    }
    /// Socket faults the seeded plan injected (kills + truncations + stalls).
    std::uint64_t socket_faults_injected() const {
        return socket_faults_injected_.load(std::memory_order_relaxed);
    }

private:
    using Clock = std::chrono::steady_clock;

    /// Per-peer link bookkeeping around the pure fsm::LinkState. Guarded by
    /// links_mutex_; the phase is mirrored into phase_[] for lock-free
    /// reads on the deliver/rank_alive hot paths.
    struct Link {
        fsm::LinkState st;
        Clock::time_point down_since{};
        Clock::time_point next_dial{};
        /// A dialed fd completed its handshake and waits in the install
        /// queue for the receiver thread; suppresses further dials.
        bool installing = false;
    };

    /// Handshake-complete connection handed from the dialer thread to the
    /// receiver thread (which owns all fd installs and closes).
    struct PendingInstall {
        int peer = -1;
        int fd = -1;
        std::uint64_t session = 0;
    };

    void require_local(int rank, const char* who) const;
    void bootstrap(const TcpConfig& config);
    void receiver_loop();
    void dialer_loop();
    /// Socket failure on the link to `peer`: kUp -> kDown (shutdown() the
    /// fd so both the receiver and any blocked writer notice; the receiver
    /// retires it). Safe from any thread.
    void link_mark_down(int peer);
    /// Absorbing death of `peer`'s link (budget exhausted / patience
    /// expired). Caller holds links_mutex_.
    void link_mark_dead_locked(int peer);
    /// Receiver thread: close and forget the fd of a non-kUp link.
    void retire_fd(int peer);
    /// Receiver thread: install a fresh connection for `peer` (closing any
    /// old fd), reset its decoder, record the reconnect event.
    void install_fd(int peer, int fd, std::uint64_t session);
    /// Receiver thread: accept + validate one RESUME on the listener.
    void accept_resume();
    /// Dialer thread: one bounded connect + RESUME/RESUME_OK exchange.
    /// Returns the connected fd, or -1.
    int dial_resume(int peer, std::uint64_t proposal);
    /// Kick the receiver's poll() awake.
    void wake_receiver();

    int rank_ = -1;
    int world_ = 0;
    std::uint64_t max_payload_ = tcp::kMaxFramePayload;
    fsm::ReconnectPolicy reconnect_;
    SocketFaultPlan faults_;
    Mailbox mailbox_;

    /// Peer sockets. Writes (install/retire) happen on the receiver thread
    /// under the peer's send mutex; atomic so the dialer/pollfd scans and
    /// deliver() read without it.
    std::unique_ptr<std::atomic<int>[]> peer_fds_;
    std::vector<tcp::FrameDecoder> decoders_;     // receiver thread only
    std::unique_ptr<std::mutex[]> send_mutexes_;  // per-peer write lock
    /// Lock-free mirror of links_[r].st.phase (stored as int).
    std::unique_ptr<std::atomic<int>[]> phase_;
    std::vector<Link> links_;  // guarded by links_mutex_
    mutable std::mutex links_mutex_;
    std::vector<PendingInstall> installs_;  // guarded by links_mutex_
    std::vector<int> reconnected_;          // guarded by links_mutex_

    /// Persistent listener for session resumes: rank 0 keeps the rendezvous
    /// socket, every other rank its mesh listener.
    int listen_fd_ = -1;
    /// Redial addresses learned at bootstrap (IPv4 network order / port).
    std::vector<std::uint32_t> peer_ip_;
    std::vector<int> peer_port_;

    /// Per-peer seeded fault streams + frame ordinals (send-mutex guarded).
    std::vector<util::Xoshiro256> fault_rng_;
    std::vector<std::uint64_t> fault_ord_;

    int wake_pipe_[2] = {-1, -1};  // self-pipe: shutdown()/events -> poll()
    std::thread receiver_;
    std::thread dialer_;
    std::atomic<bool> running_{false};
    std::once_flag shutdown_once_;
    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<std::uint64_t> socket_faults_injected_{0};
};

}  // namespace gtopk::comm
