// Wire framing for TcpTransport: one length-prefixed frame per Message.
//
// The codec is deliberately socket-free — encode_header/encode_frame
// produce bytes, FrameDecoder consumes an arbitrary re-chunking of them —
// so the fuzz suite can drive the exact code the transport's readers run
// without opening a connection. Every header field is validated eagerly,
// BEFORE the payload is buffered: a hostile or corrupted peer can make the
// decoder throw FrameError (the connection is then dropped), never
// allocate an attacker-chosen amount of memory or read out of bounds.
//
// Layout (little-endian, 44-byte header):
//   u32  magic            'GTPK' (0x4754504B)
//   u32  version          kFrameVersion
//   i32  src              sending physical rank
//   i32  dst              destination physical rank
//   i32  tag
//   i32  epoch            membership epoch (>= 0)
//   f64  arrival_time_s   modeled arrival stamp (finite, >= 0)
//   u64  payload_len      <= max_payload
//   ...  payload bytes
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/message.hpp"

namespace gtopk::comm::tcp {

inline constexpr std::uint32_t kFrameMagic = 0x4754504Bu;  // "GTPK"
inline constexpr std::uint32_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 44;

/// Hard ceiling on a frame's payload; TcpConfig may lower it further. A
/// length prefix above the limit is rejected at header-validation time, so
/// an oversized prefix can never drive an allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Highest physical rank the frame header will accept. Far above any world
/// this repo targets; it exists so a corrupted rank field is rejected
/// instead of indexing a per-rank table out of range.
inline constexpr int kMaxFrameRank = 1 << 20;

/// Thrown on any malformed frame: bad magic, unknown version, out-of-range
/// rank/tag/epoch, non-finite arrival stamp, oversized length prefix.
struct FrameError : std::runtime_error {
    explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

/// Write the header of `msg`'s frame (headed to `dst`) into `out`; the
/// payload bytes follow it on the wire unchanged. Validates the same
/// invariants the decoder enforces, so a frame this process emits is
/// always decodable by a peer with the same limits.
void encode_header(const Message& msg, int dst,
                   std::span<std::byte, kFrameHeaderBytes> out,
                   std::uint64_t max_payload = kMaxFramePayload);

/// Serialize `msg` (headed to `dst`) and append the whole frame, header
/// (encode_header) then payload, to `out`.
void encode_frame(const Message& msg, int dst, std::vector<std::byte>& out,
                  std::uint64_t max_payload = kMaxFramePayload);

/// One fully decoded frame.
struct DecodedFrame {
    Message msg;
    int dst = -1;
};

/// Incremental decoder for one connection's byte stream. feed() buffers
/// arbitrary chunks; next() yields complete frames in order, throwing
/// FrameError the moment a header is invalid (a partial header or partial
/// payload simply yields nullopt until more bytes arrive).
class FrameDecoder {
public:
    explicit FrameDecoder(std::uint64_t max_payload = kMaxFramePayload)
        : max_payload_(max_payload) {}

    /// Append raw bytes from the connection.
    void feed(std::span<const std::byte> bytes);

    /// Decode the next complete frame, or nullopt if the buffered bytes end
    /// mid-header / mid-payload. Throws FrameError on a malformed header.
    std::optional<DecodedFrame> next();

    /// Bytes buffered but not yet consumed by next().
    std::size_t buffered() const { return buffer_.size() - consumed_; }

    /// True when the stream ends inside an incomplete frame — how the
    /// receiver distinguishes a clean peer shutdown (EOF on a frame
    /// boundary) from a mid-frame disconnect.
    bool mid_frame() const { return buffered() > 0; }

    /// Drop all buffered state (connection reset).
    void reset() {
        buffer_.clear();
        consumed_ = 0;
    }

private:
    std::uint64_t max_payload_ = 0;
    std::vector<std::byte> buffer_;
    std::size_t consumed_ = 0;  // prefix of buffer_ already decoded
};

}  // namespace gtopk::comm::tcp
