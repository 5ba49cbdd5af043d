// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320) — the frame
// check sealing every WAL record payload and checkpoint payload, so a
// torn write (partial fwrite at the crash) or bit rot is DETECTED at
// recovery instead of replayed as garbage. Stdlib-only.
//
// Slicing-by-8: eight 256-entry tables, built at compile time, fold
// eight input bytes per iteration with independent lookups instead of
// one byte per dependent lookup. Input words are assembled from single
// bytes, so the result does not depend on host endianness or alignment;
// the value is bit-identical to the classic byte-at-a-time loop.
//
// Crc32 is the streaming form: update() any number of times over
// consecutive pieces, then value() equals crc32() of their concatenation
// — the checkpoint writer seals a payload it never holds in memory whole.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pramsim::durability {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  // t[k][i] is the CRC contribution of byte i followed by k zero bytes.
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian u32 from four bytes (one load on little-endian hosts).
[[nodiscard]] inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

class Crc32 {
 public:
  void update(const void* data, std::size_t size) {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = state_;
    for (; size >= 8; p += 8, size -= 8) {
      const std::uint32_t lo = crc ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size) {
      crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    }
    state_ = crc;
  }

  /// CRC-32 of every byte passed to update() so far.
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace pramsim::durability
