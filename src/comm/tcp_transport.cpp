#include "comm/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "comm/comm_error.hpp"
#include "comm/wire_codec.hpp"
#include "util/log.hpp"

namespace gtopk::comm {

namespace {

using Clock = std::chrono::steady_clock;

// Bootstrap hello: {magic, rank, advertised listen port}, little-endian.
constexpr std::uint32_t kHelloMagic = 0x4754504Cu;  // "GTPL"
constexpr std::size_t kHelloBytes = 12;

// Session handshake (every link's first connection and every resume, on
// the persistent listeners): RESUME {magic, dialer rank, proposed session}
// and its confirmation RESUME_OK {magic, acceptor rank, accepted session},
// 16 bytes each.
constexpr std::uint32_t kResumeMagic = 0x4754524Du;     // "GTRM"
constexpr std::uint32_t kResumeAckMagic = 0x4754524Eu;  // "GTRN"
constexpr std::size_t kResumeBytes = 16;

// Address-map entry per rank: {IPv4 (network order), port}, 8 bytes.
constexpr std::size_t kAddrBytes = 8;

// A handshake (connect, then one 16-byte RESUME and RESUME_OK) that takes
// longer than this is a broken peer, or no peer at all: its socket closes.
constexpr double kHandshakeTimeoutS = 1.0;
// Handshakes in flight beyond one per peer: room for stray connections to
// the listener. A connection past the bound is closed at once.
constexpr std::size_t kSpareHandshakes = 8;

// Dial budget and backoff of every link (comm/reconnect_fsm.hpp).
constexpr fsm::ReconnectPolicy kReconnect{};

// The receiver thread reads the data sockets only once the rank thread has
// not drained them for this long: short enough that a rank computing, or
// blocked in a multi-MB send to a peer that is sending to it, still has
// its inbound bytes read; long enough that a rank polling for messages is
// never woken through another thread.
constexpr auto kReaderFallback = std::chrono::milliseconds(2);
// Receiver poll tick while it reads the data sockets itself, and the
// longest it sleeps while the rank thread keeps draining them.
constexpr int kReceiverTickMs = 100;
// Bytes one recv may return (per-peer staging chunk).
constexpr std::size_t kRecvChunk = 64 * 1024;
// Up links gathered into one poll(..., 0) by the rank thread's drain.
constexpr int kDrainBatch = 64;

// A refused rendezvous connect (rank 0 has not bound its port yet) retries
// after a delay that doubles from the first to the cap.
constexpr auto kConnectRetryFirst = std::chrono::milliseconds(1);
constexpr auto kConnectRetryCap = std::chrono::milliseconds(50);

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("TcpTransport: " + what +
                             (errno ? std::string(": ") + std::strerror(errno)
                                    : std::string()));
}

double remaining_s(Clock::time_point deadline) {
    return std::chrono::duration<double>(deadline - Clock::now()).count();
}

Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/// Arm SO_RCVTIMEO so a blocking bootstrap/handshake read cannot outlive
/// its budget — the socket-timeout half of the deadline mapping.
void set_recv_timeout(int fd, double seconds) {
    if (seconds < 0.01) seconds = 0.01;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void set_nodelay(int fd) {
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

enum class IoResult { kOk, kTimeout, kClosed };

/// Exact-length rendezvous read that reports instead of throwing, so call
/// sites can raise a TYPED error naming the peer.
IoResult read_full(int fd, void* buf, std::size_t len) {
    auto* p = static_cast<std::byte*>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n > 0) {
            p += n;
            len -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return IoResult::kTimeout;  // SO_RCVTIMEO expired
        }
        return IoResult::kClosed;  // EOF or hard error: the peer is gone
    }
    return IoResult::kOk;
}

bool write_full(int fd, const void* buf, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n > 0) {
            p += n;
            len -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

void send_hello(int fd, int rank, int port) {
    std::byte hello[kHelloBytes];
    put_u32(put_u32(put_u32(hello, kHelloMagic), static_cast<std::uint32_t>(rank)),
            static_cast<std::uint32_t>(port));
    if (!write_full(fd, hello, sizeof(hello))) {
        // Rank 0 accepted our connect but vanished before reading the
        // hello: it died mid-rendezvous.
        throw CommError(CommErrorKind::RankKilled, rank, 0, -1, 0.0);
    }
}

struct Hello {
    int rank = -1;
    int port = 0;
};

enum class HelloRead {
    kOk,
    kTimeout,  // peer connected but never completed the hello
    kClosed,   // peer died after connecting
    kBad,      // malformed
};

/// Read one rendezvous hello. No RESUME can reach rank 0's listener yet:
/// peers dial only once they hold the address map, which rank 0 sends
/// after the last hello.
HelloRead read_hello(int fd, int world, Hello& out) {
    std::byte head[4];
    IoResult r = read_full(fd, head, sizeof(head));
    if (r == IoResult::kTimeout) return HelloRead::kTimeout;
    if (r == IoResult::kClosed) return HelloRead::kClosed;
    if (get_u32(head) != kHelloMagic) return HelloRead::kBad;
    std::byte rest[kHelloBytes - 4];
    r = read_full(fd, rest, sizeof(rest));
    if (r == IoResult::kTimeout) return HelloRead::kTimeout;
    if (r == IoResult::kClosed) return HelloRead::kClosed;
    out.rank = static_cast<int>(get_u32(rest + 0));
    out.port = static_cast<int>(get_u32(rest + 4));
    if (out.rank < 0 || out.rank >= world) return HelloRead::kBad;
    if (out.port < 0 || out.port > 65535) return HelloRead::kBad;
    return HelloRead::kOk;
}

/// One rendezvous socket, closed on every exit path: none of them
/// outlives the address exchange.
struct ScopedFd {
    int fd = -1;
    ScopedFd() = default;
    explicit ScopedFd(int f) : fd(f) {}
    ScopedFd(const ScopedFd&) = delete;
    ScopedFd& operator=(const ScopedFd&) = delete;
    ~ScopedFd() {
        if (fd >= 0) ::close(fd);
    }
};

sockaddr_in resolve_ipv4(const std::string& host, int port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res) {
        errno = 0;
        fail("cannot resolve rendezvous host '" + host + "'");
    }
    sockaddr_in addr = *reinterpret_cast<sockaddr_in*>(res->ai_addr);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::freeaddrinfo(res);
    return addr;
}

int listen_on(std::uint16_t port, int backlog) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        ::close(fd);
        fail("bind port " + std::to_string(port));
    }
    if (::listen(fd, backlog) < 0) {
        ::close(fd);
        fail("listen");
    }
    return fd;
}

int bound_port(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        fail("getsockname");
    }
    return static_cast<int>(ntohs(addr.sin_port));
}

/// Connect with retry until `deadline`: peers race the listener's startup,
/// so refused/unreachable attempts back off (1 ms doubling to 50 ms, never
/// past the deadline) and try again. Returns -1 on deadline expiry so the
/// caller can raise a typed error naming the peer it could not reach.
int connect_retry(const sockaddr_in& addr, Clock::time_point deadline) {
    Clock::duration delay = kConnectRetryFirst;
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) fail("socket");
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
            return fd;
        }
        ::close(fd);
        const auto now = Clock::now();
        if (now >= deadline) return -1;
        std::this_thread::sleep_for(std::min(delay, deadline - now));
        delay = std::min<Clock::duration>(delay * 2, kConnectRetryCap);
    }
}

/// Accept with deadline; -1 on expiry (caller raises the typed error).
int accept_with_deadline(int listen_fd, Clock::time_point deadline) {
    for (;;) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const double left = remaining_s(deadline);
        if (left <= 0.0) return -1;
        const int rc = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
        if (rc < 0 && errno == EINTR) continue;
        if (rc < 0) fail("poll");
        if (rc == 0) continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            fail("accept");
        }
        return fd;
    }
}

/// Write the first `limit` bytes of header ++ payload with sendmsg (a
/// truncating fault writes a prefix), resuming a partial write at the right
/// offset. False on a socket error.
bool send_frame(int fd, std::span<const std::byte> header,
                std::span<const std::byte> payload, std::size_t limit) {
    const std::size_t header_end = std::min(limit, header.size());
    const std::size_t payload_end = limit - header_end;
    std::size_t done = 0;
    while (done < limit) {
        const std::size_t in_header = std::min(done, header_end);
        const std::size_t in_payload = done - in_header;
        iovec iov[2] = {
            {const_cast<std::byte*>(header.data()) + in_header, header_end - in_header},
            {const_cast<std::byte*>(payload.data()) + in_payload,
             payload_end - in_payload},
        };
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = 2;
        const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

/// One RESUME or RESUME_OK: {magic, sender rank, session}.
std::array<std::byte, kResumeBytes> encode_resume(std::uint32_t magic, int rank,
                                                  std::uint64_t session) {
    std::array<std::byte, kResumeBytes> out;
    put_u64(put_u32(put_u32(out.data(), magic), static_cast<std::uint32_t>(rank)),
            session);
    return out;
}

/// Write a whole handshake message to a fresh non-blocking socket, whose
/// empty send buffer takes it in one call. False on any shortfall.
bool send_now(int fd, std::span<const std::byte> bytes) {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT) ==
           static_cast<ssize_t>(bytes.size());
}

/// The whole of `text` as a decimal int; anything else (empty, a junk
/// suffix, out of range) throws naming the environment variable.
int parse_env_int(const char* var, std::string_view text) {
    int v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end) {
        throw std::invalid_argument(std::string(var) + " must be a decimal integer, got '" +
                                    std::string(text) + "'");
    }
    return v;
}

constexpr int kPhaseUp = static_cast<int>(fsm::LinkPhase::kUp);
constexpr int kPhaseDown = static_cast<int>(fsm::LinkPhase::kDown);
constexpr int kPhaseDead = static_cast<int>(fsm::LinkPhase::kDead);

}  // namespace

std::optional<TcpConfig> TcpTransport::config_from_env() {
    const char* rank = std::getenv("GTOPK_RANK");
    const char* world = std::getenv("GTOPK_WORLD_SIZE");
    const char* rendezvous = std::getenv("GTOPK_RENDEZVOUS");
    if (!rank || !world || !rendezvous) return std::nullopt;
    TcpConfig cfg;
    cfg.rank = parse_env_int("GTOPK_RANK", rank);
    cfg.world_size = parse_env_int("GTOPK_WORLD_SIZE", world);
    const std::string rv = rendezvous;
    const std::size_t colon = rv.rfind(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument(
            "GTOPK_RENDEZVOUS must be host:port, got '" + rv + "'");
    }
    cfg.rendezvous_host = rv.substr(0, colon);
    cfg.rendezvous_port =
        parse_env_int("GTOPK_RENDEZVOUS", std::string_view(rv).substr(colon + 1));
    return cfg;
}

TcpTransport::TcpTransport(const TcpConfig& config)
    : rank_(config.rank), world_(config.world_size), faults_(config.socket_faults) {
    if (world_ <= 0) throw std::invalid_argument("TcpTransport: world_size <= 0");
    if (rank_ < 0 || rank_ >= world_) {
        throw std::invalid_argument("TcpTransport: rank outside world");
    }
    if (config.rendezvous_port <= 0 || config.rendezvous_port > 65535) {
        throw std::invalid_argument("TcpTransport: bad rendezvous port");
    }
    const auto n = static_cast<std::size_t>(world_);
    peer_fds_ = std::make_unique<std::atomic<int>[]>(n);
    for (std::size_t r = 0; r < n; ++r) peer_fds_[r] = -1;
    readers_ = std::make_unique<PeerReader[]>(n);
    for (std::size_t r = 0; r < n; ++r) {
        readers_[r].chunk = std::make_unique_for_overwrite<std::byte[]>(kRecvChunk);
    }
    send_mutexes_ = std::make_unique<std::mutex[]>(n);
    phase_ = std::make_unique<std::atomic<int>[]>(n);
    links_.resize(n);
    peer_ip_.assign(n, 0);
    peer_port_.assign(n, 0);
    fault_ord_.assign(n, 0);

    if (::pipe(wake_pipe_) < 0) fail("pipe");
    // Non-blocking read end: the receiver drains wakeup bytes without ever
    // blocking inside the drain loop.
    (void)::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);

    const auto deadline = Clock::now() + to_duration(config.connect_timeout_s);
    try {
        rendezvous(config, deadline);
        // The receiver takes one accept per readiness and must never block
        // in it (a connection reset before the accept leaves none).
        if (listen_fd_ >= 0) (void)::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
        // Every link opens through the session handshake that resumes a
        // downed one: the receiver dials session 1 at once.
        const auto now = Clock::now();
        for (std::size_t r = 0; r < n; ++r) {
            links_[r] = Link{fsm::kNeverConnected, now, now};
            phase_[r] = kPhaseDown;
        }
        running_.store(true, std::memory_order_release);
        receiver_ = std::thread([this] { receiver_loop(); });
        await_mesh(deadline, config.connect_timeout_s);
    } catch (...) {
        shutdown();
        throw;
    }
    util::log_info("tcp rank " + std::to_string(rank_) + "/" +
                   std::to_string(world_) + ": mesh up");
}

void TcpTransport::rendezvous(const TcpConfig& config, Clock::time_point deadline) {
    if (world_ == 1) return;  // a single-rank world has no wire
    const double budget = config.connect_timeout_s;
    std::vector<std::byte> map(static_cast<std::size_t>(world_) * kAddrBytes);

    if (rank_ == 0) {
        // The rendezvous listener stays open for the process's lifetime:
        // it doubles as rank 0's session listener.
        listen_fd_ =
            listen_on(static_cast<std::uint16_t>(config.rendezvous_port), world_);
        // Every peer dials in, introduces itself and advertises its listen
        // port; its connection lives only until the map is out.
        std::vector<ScopedFd> hellos(static_cast<std::size_t>(world_));
        // Lowest rank not yet introduced — the name a typed timeout
        // carries, so a mid-rendezvous death points at the missing peer.
        const auto lowest_missing = [&] {
            for (int r = 1; r < world_; ++r) {
                if (hellos[static_cast<std::size_t>(r)].fd < 0) return r;
            }
            return -1;
        };
        for (int accepted = 0; accepted < world_ - 1; ++accepted) {
            ScopedFd conn(accept_with_deadline(listen_fd_, deadline));
            if (conn.fd < 0) {
                throw CommError(CommErrorKind::RecvTimeout, rank_, lowest_missing(),
                                -1, budget);
            }
            set_recv_timeout(conn.fd, remaining_s(deadline));
            Hello h;
            switch (read_hello(conn.fd, world_, h)) {
                case HelloRead::kOk:
                    break;
                case HelloRead::kTimeout:
                    throw CommError(CommErrorKind::RecvTimeout, rank_,
                                    lowest_missing(), -1, budget);
                case HelloRead::kClosed:
                    // A peer connected and died before identifying itself.
                    throw CommError(CommErrorKind::RankKilled, rank_,
                                    lowest_missing(), -1, 0.0);
                case HelloRead::kBad:
                    errno = 0;
                    fail("malformed rendezvous hello");
            }
            const auto idx = static_cast<std::size_t>(h.rank);
            if (h.rank == 0 || hellos[idx].fd >= 0) {
                errno = 0;
                fail("duplicate rendezvous hello from rank " +
                     std::to_string(h.rank));
            }
            sockaddr_in peer{};
            socklen_t len = sizeof(peer);
            if (::getpeername(conn.fd, reinterpret_cast<sockaddr*>(&peer), &len) < 0) {
                fail("getpeername");
            }
            peer_ip_[idx] = peer.sin_addr.s_addr;
            peer_port_[idx] = h.port;
            std::swap(hellos[idx].fd, conn.fd);
        }
        for (int r = 0; r < world_; ++r) {
            const std::size_t off = static_cast<std::size_t>(r) * kAddrBytes;
            put_u32(map.data() + off, peer_ip_[static_cast<std::size_t>(r)]);
            put_u32(map.data() + off + 4,
                    static_cast<std::uint32_t>(peer_port_[static_cast<std::size_t>(r)]));
        }
        for (int r = 1; r < world_; ++r) {
            if (!write_full(hellos[static_cast<std::size_t>(r)].fd, map.data(),
                            map.size())) {
                // The peer introduced itself and died before the map: name it.
                throw CommError(CommErrorKind::RankKilled, rank_, r, -1, 0.0);
            }
        }
        return;
    }

    // Listener first, so the advertised port is live before any peer
    // learns it from the map.
    listen_fd_ = listen_on(0, world_);
    const int my_port = bound_port(listen_fd_);
    const sockaddr_in rendezvous =
        resolve_ipv4(config.rendezvous_host, config.rendezvous_port);
    const ScopedFd fd0(connect_retry(rendezvous, deadline));
    if (fd0.fd < 0) {
        throw CommError(CommErrorKind::RecvTimeout, rank_, 0, -1, budget);
    }
    send_hello(fd0.fd, rank_, my_port);
    set_recv_timeout(fd0.fd, remaining_s(deadline));
    switch (read_full(fd0.fd, map.data(), map.size())) {
        case IoResult::kOk:
            break;
        case IoResult::kTimeout:
            throw CommError(CommErrorKind::RecvTimeout, rank_, 0, -1, budget);
        case IoResult::kClosed:
            // Rank 0 aborted its rendezvous (naming the true victim on its
            // side); this survivor names the edge it lost.
            throw CommError(CommErrorKind::RankKilled, rank_, 0, -1, 0.0);
    }
    for (int r = 0; r < world_; ++r) {
        const std::size_t off = static_cast<std::size_t>(r) * kAddrBytes;
        peer_ip_[static_cast<std::size_t>(r)] = get_u32(map.data() + off);
        peer_port_[static_cast<std::size_t>(r)] =
            static_cast<int>(get_u32(map.data() + off + 4));
    }
    // Rank 0's map slot is empty (it never dials in): its address is the
    // rendezvous endpoint itself.
    peer_ip_[0] = rendezvous.sin_addr.s_addr;
    peer_port_[0] = config.rendezvous_port;
}

void TcpTransport::await_mesh(Clock::time_point deadline, double budget) {
    std::unique_lock<std::mutex> lock(links_mutex_);
    for (;;) {
        int missing = -1;  // lowest peer whose link is not up yet
        for (int r = 0; r < world_; ++r) {
            if (r == rank_) continue;
            const int phase =
                phase_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
            if (phase == kPhaseDead) {
                throw CommError(CommErrorKind::RankKilled, rank_, r, -1, 0.0);
            }
            if (phase != kPhaseUp && missing < 0) missing = r;
        }
        if (missing < 0) return;
        if (Clock::now() >= deadline) {
            throw CommError(CommErrorKind::RecvTimeout, rank_, missing, -1, budget);
        }
        links_cv_.wait_until(lock, deadline);
    }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::require_local(int rank, const char* who) const {
    if (rank != rank_) {
        throw std::logic_error(std::string("TcpTransport::") + who +
                               ": rank " + std::to_string(rank) +
                               " is not local (this process hosts rank " +
                               std::to_string(rank_) + ")");
    }
}

void TcpTransport::wake_receiver() {
    if (wake_pipe_[1] >= 0) {
        const char byte = 1;
        (void)!::write(wake_pipe_[1], &byte, 1);
    }
}

void TcpTransport::link_mark_down(int peer) {
    bool edge = false;
    {
        std::lock_guard<std::mutex> lock(links_mutex_);
        auto& link = links_[static_cast<std::size_t>(peer)];
        edge = fsm::link_down(link.st);
        if (edge) {
            link.down_since = Clock::now();
            link.next_dial = link.down_since;  // first dial immediately
            phase_[static_cast<std::size_t>(peer)].store(
                kPhaseDown, std::memory_order_release);
        }
    }
    if (!edge) return;
    // Shut the socket down but do NOT close the fd here: deliver() and the
    // receiver thread may still hold it, and closing would race fd reuse.
    // The receiver retires (closes) the fd of any non-up link.
    const int fd = peer_fds_[static_cast<std::size_t>(peer)].load();
    if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
    util::log_info("tcp rank " + std::to_string(rank_) + ": link to peer " +
                   std::to_string(peer) + " down, reconnecting");
    wake_receiver();
}

void TcpTransport::link_mark_dead_locked(int peer) {
    phase_[static_cast<std::size_t>(peer)].store(kPhaseDead,
                                                 std::memory_order_release);
    links_cv_.notify_all();
    util::log_warn("tcp rank " + std::to_string(rank_) + ": peer " +
                   std::to_string(peer) +
                   " declared dead (reconnect budget exhausted)");
    wake_receiver();
}

void TcpTransport::retire_fd(int peer) {
    const auto idx = static_cast<std::size_t>(peer);
    std::scoped_lock lock(send_mutexes_[idx], readers_[idx].mutex);
    const int fd = peer_fds_[idx].exchange(-1);
    if (fd >= 0) ::close(fd);
    readers_[idx].decoder.reset();
}

void TcpTransport::install_fd(int peer, int fd, std::uint64_t session) {
    set_nodelay(fd);
    // Handshakes run non-blocking; deliver() relies on a blocking sendmsg.
    (void)::fcntl(fd, F_SETFL, 0);
    int old = -1;
    {
        const auto idx = static_cast<std::size_t>(peer);
        std::scoped_lock lock(send_mutexes_[idx], readers_[idx].mutex);
        old = peer_fds_[idx].exchange(fd);
        readers_[idx].decoder.reset();
    }
    if (old >= 0) ::close(old);
    bool resumed = false;
    {
        std::lock_guard<std::mutex> lock(links_mutex_);
        auto& link = links_[static_cast<std::size_t>(peer)];
        fsm::link_established(link.st, session);
        if (link.st.phase == fsm::LinkPhase::kUp) {
            phase_[static_cast<std::size_t>(peer)].store(
                kPhaseUp, std::memory_order_release);
            // A link's first session is not a reconnect: nothing was lost
            // that the ARQ would have to replay.
            resumed = link.ever_up;
            link.ever_up = true;
            if (resumed) reconnected_.push_back(peer);
        }
    }
    links_cv_.notify_all();
    if (resumed) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        util::log_info("tcp rank " + std::to_string(rank_) + ": peer " +
                       std::to_string(peer) + " session " +
                       std::to_string(session) + " resumed");
    }
    // A link that died while the handshake was in flight keeps phase_ at
    // kDead; the retire scan closes the freshly installed fd.
}

std::optional<TcpTransport::Handshake> TcpTransport::start_dial(
    int peer, std::uint64_t proposal, Clock::time_point now) const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = peer_ip_[static_cast<std::size_t>(peer)];
    addr.sin_port =
        htons(static_cast<std::uint16_t>(peer_port_[static_cast<std::size_t>(peer)]));
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return std::nullopt;
    // A connect that completes at once (0) is reported by the first poll
    // like one still in progress.
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
        ::close(fd);
        return std::nullopt;
    }
    Handshake h;
    h.fd = fd;
    h.peer = peer;
    h.proposal = proposal;
    h.dialed = true;
    h.deadline = now + to_duration(kHandshakeTimeoutS);
    return h;
}

void TcpTransport::step_handshake(Handshake& h) {
    const auto close_record = [&h] {
        ::close(h.fd);
        h.fd = -1;
    };
    if (h.dialed && !h.sent) {
        // The connect finished, one way or the other.
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(h.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0 ||
            !send_now(h.fd, encode_resume(kResumeMagic, rank_, h.proposal))) {
            close_record();
            return;
        }
        h.sent = true;
        return;
    }
    // Never past the 16 bytes: data frames may follow a RESUME_OK at once.
    static_assert(std::tuple_size_v<decltype(h.in)> == kResumeBytes);
    const ssize_t n =
        ::recv(h.fd, h.in.data() + h.got, h.in.size() - h.got, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    if (n <= 0) {
        close_record();
        return;
    }
    h.got += static_cast<std::size_t>(n);
    if (h.got < h.in.size()) return;
    const std::uint32_t magic = get_u32(h.in.data());
    const int sender = static_cast<int>(get_u32(h.in.data() + 4));
    const std::uint64_t session = get_u64(h.in.data() + 8);
    if (h.dialed) {
        if (magic != kResumeAckMagic || sender != h.peer || session != h.proposal) {
            close_record();
            return;
        }
        // A link that died meanwhile stays dead: the retire scan closes it.
        install_fd(h.peer, h.fd, session);
        h.fd = -1;
        return;
    }
    // One orientation for every session: only a HIGHER rank dials.
    if (magic != kResumeMagic || sender <= rank_ || sender >= world_) {
        close_record();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(links_mutex_);
        if (fsm::link_resume(links_[static_cast<std::size_t>(sender)].st, session) !=
            fsm::ResumeVerdict::kAccept) {
            // Stale dial from an abandoned incarnation, or a dead link
            // nothing may resurrect: refuse by closing.
            close_record();
            return;
        }
    }
    // The ack goes out before install_fd publishes the socket: from then on
    // a rank thread's deliver (the ARQ replaying its backlog) may write data
    // frames to it, and the dialer reads whatever comes first as the ack.
    // Until the install nothing else knows this fd, so no lock is needed.
    if (!send_now(h.fd, encode_resume(kResumeAckMagic, rank_, session))) {
        close_record();
        link_mark_down(sender);
        return;
    }
    install_fd(sender, h.fd, session);
    h.fd = -1;
}

void TcpTransport::deliver(int dst, Message msg) {
    if (dst < 0 || dst >= world_) {
        throw std::out_of_range("TcpTransport::deliver: bad destination");
    }
    if (dst == rank_) {
        mailbox_.push(std::move(msg));
        return;
    }
    const auto d = static_cast<std::size_t>(dst);
    if (phase_[d].load(std::memory_order_acquire) == kPhaseDead) {
        throw CommError(CommErrorKind::RankKilled, rank_, dst, msg.tag, 0.0);
    }
    std::array<std::byte, tcp::kFrameHeaderBytes> header;
    tcp::encode_header(msg, dst, header);
    const std::size_t frame_bytes = header.size() + msg.payload.size();

    std::lock_guard<std::mutex> lock(send_mutexes_[d]);
    const int fd = peer_fds_[d].load();
    if (fd < 0 || phase_[d].load(std::memory_order_acquire) != kPhaseUp) {
        // Link is mid-reconnect: the frame is LOST, deliberately and
        // silently — the wire ARQ above holds a pristine copy and replays
        // it the moment take_reconnected() reports the resume.
        return;
    }
    if (faults_.enabled() &&
        (faults_.max_faults == 0 ||
         socket_faults_injected_.load(std::memory_order_relaxed) <
             faults_.max_faults)) {
        const std::uint64_t ord = ++fault_ord_[d];
        if (faults_.kill_every_n != 0 && ord % faults_.kill_every_n == 0) {
            socket_faults_injected_.fetch_add(1, std::memory_order_relaxed);
            (void)::shutdown(fd, SHUT_RDWR);
            link_mark_down(dst);
            return;
        }
        if (faults_.truncate_every_n != 0 && ord % faults_.truncate_every_n == 0) {
            socket_faults_injected_.fetch_add(1, std::memory_order_relaxed);
            (void)send_frame(fd, header, msg.payload, frame_bytes / 2);
            (void)::shutdown(fd, SHUT_RDWR);
            link_mark_down(dst);
            return;
        }
    }
    if (!send_frame(fd, header, msg.payload, frame_bytes)) {
        // Broken pipe / reset: down the link and drop the frame. The
        // reconnect FSM decides whether the peer is gone for good; the ARQ
        // layer recovers the payload either way.
        link_mark_down(dst);
    }
}

std::optional<Message> TcpTransport::try_receive(int rank, int source, int tag) {
    require_local(rank, "try_receive");
    if (auto msg = mailbox_.try_pop(source, tag)) return msg;
    if (!drain_sockets()) return std::nullopt;
    return mailbox_.try_pop(source, tag);
}

bool TcpTransport::drain_sockets() {
    last_drain_.store(Clock::now().time_since_epoch().count(),
                      std::memory_order_relaxed);
    bool readable = false;
    for (int base = 0; base < world_; base += kDrainBatch) {
        std::array<pollfd, kDrainBatch> pfds;
        std::array<int, kDrainBatch> peers;
        nfds_t n = 0;
        for (int r = base; r < std::min(world_, base + kDrainBatch); ++r) {
            const auto idx = static_cast<std::size_t>(r);
            const int fd = peer_fds_[idx].load();
            if (fd < 0 || phase_[idx].load(std::memory_order_acquire) != kPhaseUp) {
                continue;
            }
            pfds[n] = pollfd{fd, POLLIN, 0};
            peers[n++] = r;
        }
        if (n == 0 || ::poll(pfds.data(), n, 0) <= 0) continue;
        for (nfds_t i = 0; i < n; ++i) {
            if (pfds[i].revents == 0) continue;
            readable = true;
            const auto idx = static_cast<std::size_t>(peers[i]);
            // Never block: a busy reader is the receiver thread, already
            // emptying this socket into the mailbox.
            std::unique_lock<std::mutex> lock(readers_[idx].mutex, std::try_to_lock);
            const int fd = peer_fds_[idx].load();
            if (lock.owns_lock() && fd >= 0) read_peer_locked(peers[i], fd);
        }
    }
    return readable;
}

void TcpTransport::read_peer_locked(int peer, int fd) {
    PeerReader& reader = readers_[static_cast<std::size_t>(peer)];
    for (;;) {
        const ssize_t n = ::recv(fd, reader.chunk.get(), kRecvChunk, MSG_DONTWAIT);
        if (n > 0) {
            try {
                reader.decoder.feed(std::span<const std::byte>(
                    reader.chunk.get(), static_cast<std::size_t>(n)));
                while (auto frame = reader.decoder.next()) {
                    if (frame->dst != rank_ || frame->msg.source != peer) {
                        // Misrouted or spoofed: the link is not
                        // trustworthy; tear it down wholesale.
                        link_mark_down(peer);
                        return;
                    }
                    mailbox_.push(std::move(frame->msg));
                }
            } catch (const tcp::FrameError& e) {
                util::log_warn("tcp rank " + std::to_string(rank_) +
                               ": downing link to peer " + std::to_string(peer) +
                               ": " + e.what());
                link_mark_down(peer);
                return;
            }
            // A short read emptied the socket; a full one may have left more.
            if (static_cast<std::size_t>(n) < kRecvChunk) return;
            continue;
        }
        if (n == 0) {
            // EOF. Mid-frame is a crash; a frame boundary is a clean exit —
            // either way the link is down and the reconnect FSM decides
            // whether the peer comes back.
            if (reader.decoder.mid_frame()) {
                util::log_warn("tcp rank " + std::to_string(rank_) + ": peer " +
                               std::to_string(peer) + " disconnected mid-frame");
            }
            link_mark_down(peer);
            return;
        }
        if (errno == EINTR) continue;
        // EAGAIN: drained (the other reader may have emptied it since poll).
        if (errno != EAGAIN && errno != EWOULDBLOCK) link_mark_down(peer);
        return;
    }
}

void TcpTransport::begin_epoch(int rank, int epoch) {
    require_local(rank, "begin_epoch");
    mailbox_.set_min_epoch(epoch);
}

bool TcpTransport::rank_alive(int rank) const {
    if (rank < 0 || rank >= world_) return false;
    if (rank == rank_) return true;
    return phase_[static_cast<std::size_t>(rank)].load(
               std::memory_order_acquire) != kPhaseDead;
}

std::size_t TcpTransport::pending_with_tag_at_least(int rank, int min_tag) const {
    if (rank != rank_) return 0;  // other ranks' queues live in other processes
    return mailbox_.count_tag_at_least(min_tag);
}

std::vector<int> TcpTransport::take_reconnected(int rank) {
    require_local(rank, "take_reconnected");
    std::lock_guard<std::mutex> lock(links_mutex_);
    std::vector<int> out;
    out.swap(reconnected_);
    return out;
}

void TcpTransport::receiver_loop() {
    const auto patience = to_duration(kReconnect.give_up_after_s);
    const std::size_t max_handshakes = static_cast<std::size_t>(world_) + kSpareHandshakes;
    // Reserved up front, so the loop never grows them: the handshakes in
    // flight, and the poll set with the peer of each data-socket entry.
    std::vector<Handshake> handshakes;
    std::vector<pollfd> pfds;
    std::vector<int> pfd_peer;
    handshakes.reserve(max_handshakes);
    pfds.reserve(2 + max_handshakes + static_cast<std::size_t>(world_));
    pfd_peer.reserve(static_cast<std::size_t>(world_));
    const auto dialing = [&handshakes](int peer) {
        return std::any_of(handshakes.begin(), handshakes.end(),
                           [peer](const Handshake& h) { return h.dialed && h.peer == peer; });
    };
    // How long past the rank thread's last drain the next check comes. It
    // doubles after every wake that finds the window fresh, up to the tick,
    // and falls back to the window once a window expires: a rank that
    // keeps polling costs about ten wakes a second, not one per window.
    Clock::duration drain_wait = kReaderFallback;
    while (running_.load(std::memory_order_acquire)) {
        const auto now = Clock::now();
        receiver_wakeups_.fetch_add(1, std::memory_order_relaxed);
        // 1. Link scan: a link down past the patience window dies, whichever
        // side of it this rank is; the dialing (higher) side opens each due
        // dial. The next dial still to come bounds the poll.
        auto wake_at = now + std::chrono::milliseconds(kReceiverTickMs);
        {
            std::lock_guard<std::mutex> lock(links_mutex_);
            for (int p = 0; p < world_; ++p) {
                auto& link = links_[static_cast<std::size_t>(p)];
                if (p == rank_ || link.st.phase != fsm::LinkPhase::kDown) continue;
                if (now - link.down_since > patience) {
                    if (fsm::link_expire(link.st)) link_mark_dead_locked(p);
                    continue;
                }
                // A full table frees a record on a poll event or deadline.
                if (p > rank_ || dialing(p) || handshakes.size() == max_handshakes) {
                    continue;
                }
                if (now < link.next_dial) {
                    wake_at = std::min(wake_at, link.next_dial);
                    continue;
                }
                if (fsm::link_dial(link.st, kReconnect) == fsm::DialVerdict::kDead) {
                    link_mark_dead_locked(p);
                    continue;
                }
                link.next_dial = now + to_duration(fsm::link_backoff_s(link.st, kReconnect));
                if (auto h = start_dial(p, fsm::link_propose(link.st), now)) {
                    handshakes.push_back(*h);
                }
            }
        }
        // 2. Retire the fd of any link no longer up.
        for (int r = 0; r < world_; ++r) {
            const auto idx = static_cast<std::size_t>(r);
            if (r != rank_ &&
                phase_[idx].load(std::memory_order_acquire) != kPhaseUp &&
                peer_fds_[idx].load() >= 0) {
                retire_fd(r);
            }
        }
        // 3. Poll: wake pipe, listener, every handshake (a dial waits to be
        // writable until its connect is done) and — only once the rank
        // thread has left them undrained for kReaderFallback — every up
        // link. Until then, sleep until drain_wait past the last drain.
        // An expired handshake closes here.
        const auto idle =
            now - Clock::time_point(Clock::duration(
                      last_drain_.load(std::memory_order_relaxed)));
        const bool fallback = idle >= kReaderFallback;
        if (fallback) {
            drain_wait = kReaderFallback;
        } else {
            drain_wait = std::min<Clock::duration>(
                2 * drain_wait, std::chrono::milliseconds(kReceiverTickMs));
            wake_at = std::min(wake_at, now + (drain_wait - idle));
        }
        pfds.clear();
        pfd_peer.clear();
        pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        pfds.push_back(pollfd{listen_fd_, POLLIN, 0});  // -1: ignored by poll
        std::erase_if(handshakes, [now](const Handshake& h) {
            if (now < h.deadline) return false;
            ::close(h.fd);
            return true;
        });
        for (const Handshake& h : handshakes) {
            wake_at = std::min(wake_at, h.deadline);
            pfds.push_back(
                pollfd{h.fd, static_cast<short>(h.dialed && !h.sent ? POLLOUT : POLLIN), 0});
        }
        const std::size_t data_at = pfds.size();
        for (int r = 0; r < world_ && fallback; ++r) {
            const auto idx = static_cast<std::size_t>(r);
            const int fd = peer_fds_[idx].load();
            if (fd < 0 ||
                phase_[idx].load(std::memory_order_acquire) != kPhaseUp) {
                continue;
            }
            pfds.push_back(pollfd{fd, POLLIN, 0});
            pfd_peer.push_back(r);
        }
        const int timeout_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::chrono::ceil<std::chrono::milliseconds>(wake_at - now).count()));
        const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (rc == 0) continue;
        if (pfds[0].revents != 0) {
            char drain[16];
            while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
            }
        }
        // 4. Advance the handshakes, then take one new connection (beyond
        // the bound it closes at once), then read the data sockets.
        for (std::size_t i = 0; i < data_at - 2; ++i) {
            if (pfds[2 + i].revents != 0) step_handshake(handshakes[i]);
        }
        std::erase_if(handshakes, [](const Handshake& h) { return h.fd < 0; });
        if (pfds[1].revents != 0) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
            if (fd >= 0 && handshakes.size() == max_handshakes) {
                ::close(fd);
            } else if (fd >= 0) {
                Handshake h;
                h.fd = fd;
                h.deadline = Clock::now() + to_duration(kHandshakeTimeoutS);
                handshakes.push_back(h);
            }
        }
        for (std::size_t i = data_at; i < pfds.size(); ++i) {
            if (pfds[i].revents == 0) continue;
            const int peer = pfd_peer[i - data_at];
            const auto idx = static_cast<std::size_t>(peer);
            std::lock_guard<std::mutex> lock(readers_[idx].mutex);
            // Skip a socket swapped since the poll; the next pass sees the
            // new one.
            if (peer_fds_[idx].load() == pfds[i].fd) read_peer_locked(peer, pfds[i].fd);
        }
    }
    for (const Handshake& h : handshakes) ::close(h.fd);
}

void TcpTransport::shutdown() {
    std::call_once(shutdown_once_, [this] {
        running_.store(false, std::memory_order_release);
        wake_receiver();
        if (receiver_.joinable()) receiver_.join();
        for (int r = 0; r < world_; ++r) {
            // Not the send mutex: a deliver blocked on a full socket holds
            // it, and only shutting the socket down (close() does not)
            // wakes that send.
            const auto idx = static_cast<std::size_t>(r);
            std::lock_guard<std::mutex> lock(readers_[idx].mutex);
            const int fd = peer_fds_[idx].exchange(-1);
            if (fd >= 0) {
                (void)::shutdown(fd, SHUT_RDWR);
                ::close(fd);
            }
            readers_[idx].decoder.reset();
        }
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
        if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
        wake_pipe_[0] = wake_pipe_[1] = -1;
        mailbox_.close();
    });
}

}  // namespace gtopk::comm
