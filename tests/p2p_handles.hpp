// Point-to-point transfers for tests, each run as one absolute-tag
// AsyncCollective handle: a one-op schedule on the caller's rank, started
// and waited. The Communicator has no blocking send or receive; this is the
// runtime's one path (send_async / try_recv_async pumped by wait()). A lone
// handle starts its send at max(previous send end, the clock) and its
// wait() advances the clock to its last event, so a send costs the sender
// alpha + n*beta and a receive waits for the modeled arrival — the
// sequential alpha-beta clock.
#pragma once

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "collectives/collectives.hpp"
#include "comm/communicator.hpp"

namespace gtopk::test {

inline collectives::Schedule p2p_schedule(const comm::Communicator& comm,
                                          collectives::CommOp::Kind kind, int peer,
                                          int tag) {
    collectives::Schedule s;
    s.proto = "test.p2p";
    s.world = comm.size();
    s.absolute_tags = true;
    s.ranks.resize(static_cast<std::size_t>(s.world));
    collectives::CommOp op;
    op.kind = kind;
    op.peer = peer;
    op.tag_offset = tag;
    s.ranks[static_cast<std::size_t>(comm.rank())].push_back(op);
    return s;
}

inline void send_bytes(comm::Communicator& comm, int dst, int tag,
                       std::span<const std::byte> bytes) {
    collectives::detail::run(
        comm, p2p_schedule(comm, collectives::CommOp::Kind::Send, dst, tag),
        [bytes](const collectives::CommOp&) { return bytes; },
        [](const collectives::CommOp&, std::span<const std::byte>) {});
}

inline std::vector<std::byte> recv_bytes(comm::Communicator& comm, int src, int tag) {
    std::vector<std::byte> out;
    collectives::detail::run(
        comm, p2p_schedule(comm, collectives::CommOp::Kind::Recv, src, tag),
        [](const collectives::CommOp&) { return std::span<const std::byte>(); },
        [&out](const collectives::CommOp&, std::span<const std::byte> bytes) {
            out.assign(bytes.begin(), bytes.end());
        });
    return out;
}

template <typename T>
void send_vec(comm::Communicator& comm, int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(comm, dst, tag, std::as_bytes(std::span<const T>(v)));
}

template <typename T>
std::vector<T> recv_vec(comm::Communicator& comm, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(comm, src, tag);
    std::vector<T> out(raw.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), raw.data(), out.size() * sizeof(T));
    return out;
}

}  // namespace gtopk::test
