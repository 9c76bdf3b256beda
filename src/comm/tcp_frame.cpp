#include "comm/tcp_frame.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "comm/wire_codec.hpp"

namespace gtopk::comm::tcp {

namespace {

std::byte* put_i32(std::byte* out, std::int32_t v) {
    return put_u32(out, static_cast<std::uint32_t>(v));
}

std::byte* put_f64(std::byte* out, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return put_u64(out, bits);
}

std::int32_t get_i32(const std::byte* p) {
    return static_cast<std::int32_t>(get_u32(p));
}

double get_f64(const std::byte* p) {
    const std::uint64_t bits = get_u64(p);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

struct Header {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::int32_t tag = 0;
    std::int32_t epoch = 0;
    double arrival_time_s = 0.0;
    std::uint64_t payload_len = 0;
};

Header parse_header(const std::byte* p) {
    Header h;
    h.magic = get_u32(p + 0);
    h.version = get_u32(p + 4);
    h.src = get_i32(p + 8);
    h.dst = get_i32(p + 12);
    h.tag = get_i32(p + 16);
    h.epoch = get_i32(p + 20);
    h.arrival_time_s = get_f64(p + 24);
    h.payload_len = get_u64(p + 32);
    return h;
}

static_assert(kFrameHeaderBytes == 40 + 4,
              "header layout: 4+4+4+4+4+4+8+8 bytes plus 4 reserved below");

void validate_header(const Header& h, std::uint64_t max_payload) {
    if (h.magic != kFrameMagic) throw FrameError("tcp frame: bad magic");
    if (h.version != kFrameVersion) {
        throw FrameError("tcp frame: unsupported version " +
                         std::to_string(h.version));
    }
    if (h.src < 0 || h.src > kMaxFrameRank) {
        throw FrameError("tcp frame: source rank out of range");
    }
    if (h.dst < 0 || h.dst > kMaxFrameRank) {
        throw FrameError("tcp frame: destination rank out of range");
    }
    if (h.tag < 0) throw FrameError("tcp frame: negative tag");
    if (h.epoch < 0) throw FrameError("tcp frame: negative epoch");
    if (!std::isfinite(h.arrival_time_s) || h.arrival_time_s < 0.0) {
        throw FrameError("tcp frame: invalid arrival stamp");
    }
    if (h.payload_len > max_payload || h.payload_len > kMaxFramePayload) {
        throw FrameError("tcp frame: payload length " +
                         std::to_string(h.payload_len) + " exceeds limit");
    }
}

}  // namespace

void encode_header(const Message& msg, int dst,
                   std::span<std::byte, kFrameHeaderBytes> out,
                   std::uint64_t max_payload) {
    Header h;
    h.magic = kFrameMagic;
    h.version = kFrameVersion;
    h.src = msg.source;
    h.dst = dst;
    h.tag = msg.tag;
    h.epoch = msg.epoch;
    h.arrival_time_s = msg.arrival_time_s;
    h.payload_len = msg.payload.size();
    validate_header(h, max_payload);

    std::byte* p = out.data();
    p = put_u32(p, h.magic);
    p = put_u32(p, h.version);
    p = put_i32(p, h.src);
    p = put_i32(p, h.dst);
    p = put_i32(p, h.tag);
    p = put_i32(p, h.epoch);
    p = put_f64(p, h.arrival_time_s);
    p = put_u64(p, h.payload_len);
    put_u32(p, 0);  // reserved: keeps the header 4-byte-rounded at 44
}

void encode_frame(const Message& msg, int dst, std::vector<std::byte>& out,
                  std::uint64_t max_payload) {
    std::array<std::byte, kFrameHeaderBytes> header;
    encode_header(msg, dst, header, max_payload);
    out.reserve(out.size() + kFrameHeaderBytes + msg.payload.size());
    out.insert(out.end(), header.begin(), header.end());
    out.insert(out.end(), msg.payload.begin(), msg.payload.end());
}

void FrameDecoder::feed(std::span<const std::byte> bytes) {
    // Compact the already-consumed prefix before growing: keeps the buffer
    // proportional to the unfinished frame, not to connection lifetime.
    if (consumed_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<DecodedFrame> FrameDecoder::next() {
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderBytes) return std::nullopt;
    const std::byte* base = buffer_.data() + consumed_;

    // Validate eagerly: a bad header is rejected here, before any payload
    // bytes are waited for — an oversized length prefix never buffers.
    const Header h = parse_header(base);
    validate_header(h, max_payload_);

    const std::size_t total = kFrameHeaderBytes + h.payload_len;
    if (avail < total) return std::nullopt;

    DecodedFrame frame;
    frame.msg.source = h.src;
    frame.msg.tag = h.tag;
    frame.msg.epoch = h.epoch;
    frame.msg.arrival_time_s = h.arrival_time_s;
    frame.msg.payload.assign(base + kFrameHeaderBytes, base + total);
    frame.dst = h.dst;
    consumed_ += total;
    if (consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    }
    return frame;
}

}  // namespace gtopk::comm::tcp
