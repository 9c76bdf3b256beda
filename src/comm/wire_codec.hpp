// Little-endian scalar codec of every integer the comm layer puts on the
// wire: TCP frame headers, the rendezvous hello and address map, the
// session handshake, the reliable layer's envelopes and control frames,
// and the membership JOIN/VIEW payloads. Byte-wise, so no host layout or
// unaligned load leaks in; each put returns the byte after the value it
// wrote.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gtopk::comm {

inline std::byte* put_u32(std::byte* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) *out++ = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    return out;
}

inline std::byte* put_u64(std::byte* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) *out++ = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    return out;
}

inline std::uint32_t get_u32(const std::byte* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
    }
    return v;
}

inline std::uint64_t get_u64(const std::byte* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
    }
    return v;
}

}  // namespace gtopk::comm
