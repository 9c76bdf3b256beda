// TcpTransport: the real-socket Transport — one OS process per rank, a
// full TCP mesh between them, the same interface the in-process cluster
// runs on (transport.hpp), so every decorator (FaultInjectingTransport,
// ReliableTransport, RecordingTransport, telemetry) stacks over it
// unchanged.
//
// Bootstrap: the rendezvous is an address exchange only. Rank 0 listens
// on the rendezvous port; every other rank connects there (with retry
// inside connect_timeout_s, so start order does not matter), sends a
// Hello{rank, listen_port}, reads the address map (every rank's IP:port)
// back, and the rendezvous connection closes. Every link then opens
// through the session handshake that also resumes a downed link: each
// link starts never-connected (fsm::kNeverConnected), the higher rank of
// the pair dials the lower one's listener with a RESUME proposing session
// 1, and the constructor returns once every link is up. A rank that dies
// mid-bootstrap surfaces on every survivor as a typed CommError naming the
// missing peer (deadline -> RecvTimeout, a link the FSM declares dead or a
// rendezvous peer that vanished -> RankKilled), never a generic failure.
//
// Data plane: one frame per Message (comm/tcp_frame.hpp), written blocking
// under a per-peer send mutex as one sendmsg of a stack header and the
// payload. The rank thread reads its own sockets: a try_receive that finds
// no match in the local Mailbox makes one poll(..., 0) over the up links,
// reads every readable one without blocking, decodes the frames straight
// into the Mailbox and retries the match — so a frame costs no thread hop.
// One background thread, the receiver, owns connection management: it
// runs every session handshake, dial and accept alike, as a non-blocking
// socket in its own poll loop (each bounded by a deadline), installs and
// retires links, expires patience, and is the reader of last resort: it
// polls the data sockets only while the rank thread has not drained them
// for a short window (a rank computing, or blocked in a multi-MB send to a
// peer that is sending to it), so inbound bytes and EOF are always
// noticed. No socket read or connect of that thread ever blocks, so a
// silent connection to the listener cannot stall it. Both threads run the
// same read routine under a per-peer read mutex, which the rank thread
// only ever try_locks. SO_RCVTIMEO bounds the bootstrap's blocking
// rendezvous reads.
//
// Failure model (self-healing): EOF, ECONNRESET/EPIPE, a mid-frame
// disconnect or a malformed frame downs the LINK, not the peer. Link
// lifecycle is the pure FSM in comm/reconnect_fsm.hpp: the higher rank of
// the pair re-dials the lower one's persistent listener (rank 0 keeps the
// rendezvous listener, everyone else their own) with capped exponential
// backoff, carrying a RESUME hello that proposes a strictly advancing
// session id; the acceptor validates it (stale dials from
// abandoned incarnations are rejected) and answers RESUME_OK. While a link
// is kDown, deliver() to that peer silently drops the frame — the wire ARQ
// above (ReliableTransport) buffers every payload and replays the gap the
// moment take_reconnected() reports the resume. Only when the reconnect
// budget is exhausted does the link turn kDead (absorbing): rank_alive()
// goes false, a send throws CommError(RankKilled), a blocked receiver
// surfaces CommError(RecvTimeout) through its deadline, and the membership
// layer takes over. Typed errors, never a hang.
//
// Deterministic socket chaos: TcpConfig::socket_faults drives a per-peer
// injector inside deliver()'s write path — connection kills and
// truncated frames (half a frame then a hard shutdown) — so
// reconnect-under-load is testable without real network flakiness.
//
// This transport addresses ONE rank per process: receive/begin_epoch/
// pending_with_tag_at_least/take_reconnected are only valid for the
// configured rank (the mailbox of any other rank lives in another process).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
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

namespace gtopk::comm {

/// Deterministic socket-level fault plan: CONNECTION chaos (the layer below
/// FaultInjectingTransport's message chaos). Applied per frame, inside the
/// per-peer send lock — the fault schedule is a pure function of the
/// per-peer frame ordinals.
struct SocketFaultPlan {
    /// Hard-kill the connection instead of writing every Nth frame to a
    /// peer (1-based ordinal divisible by N). 0 = off. The frame is lost;
    /// the link goes kDown and the reconnect FSM takes over.
    std::uint64_t kill_every_n = 0;
    /// Write only the first half of every Nth frame, then hard-kill the
    /// connection — the receiver sees a mid-frame disconnect. 0 = off.
    std::uint64_t truncate_every_n = 0;
    /// Stop injecting after this many faults (whole transport, all peers).
    /// 0 = unlimited. Sustained periodic kills can outpace the ARQ replay
    /// forever (each connection incarnation delivers fewer frames than the
    /// growing backlog) — a bounded burst models real transient chaos and
    /// guarantees the run eventually drains.
    std::uint64_t max_faults = 0;

    bool enabled() const { return kill_every_n != 0 || truncate_every_n != 0; }
};

struct TcpConfig {
    int rank = -1;
    int world_size = 0;
    /// Rendezvous (rank 0) address every rank dials during bootstrap.
    std::string rendezvous_host = "127.0.0.1";
    int rendezvous_port = 0;
    /// Bound on the whole bootstrap: connect retries, hello exchange,
    /// address-map reads and every link's first session handshake complete
    /// within this budget or construction throws a CommError naming the
    /// missing peer.
    double connect_timeout_s = 30.0;
    /// Scheduled connection-level chaos (kills, truncations).
    SocketFaultPlan socket_faults;
};

class TcpTransport final : public Transport {
public:
    /// Rendezvous, then the first session handshake on every link; blocks
    /// until every link is up, or throws a CommError naming the missing
    /// peer (RankKilled for a link the FSM declared dead, RecvTimeout when
    /// connect_timeout_s expires first).
    explicit TcpTransport(const TcpConfig& config);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    /// Build a config from the launcher's environment: GTOPK_RANK,
    /// GTOPK_WORLD_SIZE, GTOPK_RENDEZVOUS ("host:port"). nullopt when the
    /// variables are absent (not launched under tools/gtopkrun).
    static std::optional<TcpConfig> config_from_env();

    int world_size() const override { return world_; }

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
    /// call; a link's first session is not a resume and is never reported.
    /// The reliable layer drains this from its pump and immediately
    /// replays the ARQ gap with each returned peer.
    std::vector<int> take_reconnected(int rank) override;

    /// Successful session resumes (either side) since construction; 0
    /// after a clean bootstrap.
    std::uint64_t reconnects() const {
        return reconnects_.load(std::memory_order_relaxed);
    }
    /// Passes of the receiver thread's poll loop since construction; each
    /// one scans every link.
    std::uint64_t receiver_wakeups() const {
        return receiver_wakeups_.load(std::memory_order_relaxed);
    }
    /// Socket faults the plan injected (kills + truncations).
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
        /// A session was installed before: the next install is a resume.
        bool ever_up = false;
    };

    /// One socket in the session handshake, owned by the receiver thread.
    /// A dial waits for its non-blocking connect, writes its RESUME and
    /// reads the RESUME_OK; an accept reads the RESUME and answers it.
    struct Handshake {
        int fd = -1;
        int peer = -1;  // the dialed peer; an accept learns it from the RESUME
        std::uint64_t proposal = 0;
        bool dialed = false;
        bool sent = false;  // dial: connected and RESUME written
        std::array<std::byte, 16> in{};
        std::size_t got = 0;  // bytes of `in` read so far
        Clock::time_point deadline{};
    };

    void require_local(int rank, const char* who) const;
    /// Address exchange through rank 0: fills peer_ip_/peer_port_ and
    /// opens listen_fd_. No rendezvous socket outlives it.
    void rendezvous(const TcpConfig& config, Clock::time_point deadline);
    /// Block until every link is kUp (typed CommError otherwise).
    void await_mesh(Clock::time_point deadline, double budget);
    void receiver_loop();
    /// Socket failure on the link to `peer`: kUp -> kDown (shutdown() the
    /// fd so both the receiver and any blocked writer notice; the receiver
    /// retires it). Safe from any thread.
    void link_mark_down(int peer);
    /// Absorbing death of `peer`'s link (budget exhausted / patience
    /// expired). Caller holds links_mutex_.
    void link_mark_dead_locked(int peer);
    /// Receiver thread: close and forget the fd of a non-kUp link and
    /// reset its decoder.
    void retire_fd(int peer);
    /// Receiver thread: install a fresh connection for `peer` (closing any
    /// old fd), reset its decoder, record the reconnect event unless this
    /// is the link's first session.
    void install_fd(int peer, int fd, std::uint64_t session);
    /// Read whatever `peer`'s socket `fd` holds without blocking: feed the
    /// peer's decoder, push every complete frame into the mailbox, and
    /// down the link on EOF, a socket error or a malformed frame. Caller
    /// holds the peer's reader mutex; the rank thread and the receiver
    /// thread both read through here.
    void read_peer_locked(int peer, int fd);
    /// Rank thread, on a mailbox miss: one poll(..., 0) over the up links,
    /// then read every readable one whose reader mutex is free. Stamps
    /// last_drain_. True if any socket polled readable.
    bool drain_sockets();
    /// Receiver thread: open a non-blocking dial to `peer` proposing
    /// `proposal`; its handshake record, or nullopt if the connect failed.
    std::optional<Handshake> start_dial(int peer, std::uint64_t proposal,
                                        Clock::time_point now) const;
    /// Receiver thread: advance handshake `h` on a poll event. On success
    /// the socket is installed; on failure it is closed. Either way the
    /// record ends with fd -1.
    void step_handshake(Handshake& h);
    /// Kick the receiver's poll() awake.
    void wake_receiver();

    int rank_ = -1;
    int world_ = 0;
    SocketFaultPlan faults_;
    Mailbox mailbox_;

    /// Inbound state of one peer's connection. Whichever thread holds
    /// `mutex` reads the socket and owns `decoder` and `chunk`; the rank
    /// thread only try_locks it, and install/retire/shutdown lock it before
    /// they swap or close the fd or reset the decoder.
    struct PeerReader {
        std::mutex mutex;
        tcp::FrameDecoder decoder;
        /// recv staging (kRecvChunk bytes, left uninitialised: only the
        /// pages a read reaches become resident).
        std::unique_ptr<std::byte[]> chunk;
    };

    /// Peer sockets. Writes (install/retire) take the peer's send mutex
    /// and reader mutex; atomic so the poll scans and deliver() read
    /// without them.
    std::unique_ptr<std::atomic<int>[]> peer_fds_;
    std::unique_ptr<PeerReader[]> readers_;
    std::unique_ptr<std::mutex[]> send_mutexes_;  // per-peer write lock
    /// Lock-free mirror of links_[r].st.phase (stored as int).
    std::unique_ptr<std::atomic<int>[]> phase_;
    std::vector<Link> links_;  // guarded by links_mutex_
    mutable std::mutex links_mutex_;
    /// Notified when a link turns kUp or kDead; the constructor waits on it.
    std::condition_variable links_cv_;
    std::vector<int> reconnected_;  // guarded by links_mutex_

    /// Persistent listener for session handshakes: rank 0 keeps the
    /// rendezvous socket, every other rank listens on an ephemeral port.
    int listen_fd_ = -1;
    /// Dial addresses learned at the rendezvous (IPv4 network order / port).
    std::vector<std::uint32_t> peer_ip_;
    std::vector<int> peer_port_;

    /// Per-peer frame ordinals for the fault plan (send-mutex guarded).
    std::vector<std::uint64_t> fault_ord_;

    /// Steady-clock time (time_since_epoch ticks) of the rank thread's
    /// last drain_sockets(); the receiver reads the data sockets only when
    /// it is older than the fallback window. 0: never drained.
    std::atomic<Clock::rep> last_drain_{0};
    int wake_pipe_[2] = {-1, -1};  // self-pipe: shutdown()/events -> poll()
    std::thread receiver_;
    std::atomic<bool> running_{false};
    std::once_flag shutdown_once_;
    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<std::uint64_t> receiver_wakeups_{0};
    std::atomic<std::uint64_t> socket_faults_injected_{0};
};

}  // namespace gtopk::comm
