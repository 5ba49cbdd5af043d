#include "durability/crc32.hpp"

#include <array>

#include "util/isa.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pramsim::durability {

namespace {

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

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian u32 from four bytes (one load on little-endian hosts).
[[nodiscard]] std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)

/// Spans shorter than this stay on the table loop: the kernel needs one
/// 16-byte chunk per lane before it can start.
constexpr std::size_t kFoldMinBytes = 64;

[[nodiscard]] __attribute__((target("pclmul"))) inline __m128i load128(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry `x` forward over the distance its constant pair encodes and add
/// the data there: low half times k.lo, high half times k.hi, xor `next`.
[[nodiscard]] __attribute__((target("pclmul"))) inline __m128i fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// The CRC state after the `size` bytes at `p`, from `state`; `size` is
/// a multiple of 16 and at least kFoldMinBytes. The constants are
/// bit-reflected residues x^t mod P of the reflected polynomial, 33 bits
/// each: k1/k2 carry a lane 512 bits, k3/k4 carry 128 bits, k5 reduces
/// 64 bits to 32, and P' with mu = floor(x^64 / P) make the Barrett
/// reduction. The state sits in the first four message bytes, which is
/// where the table loop xors it too.
__attribute__((target("pclmul"))) std::uint32_t fold_pclmul(
    std::uint32_t state, const unsigned char* p, std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(
      load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = fold(x0, k1k2, load128(p));
    x1 = fold(x1, k1k2, load128(p + 16));
    x2 = fold(x2, k1k2, load128(p + 32));
    x3 = fold(x3, k1k2, load128(p + 48));
  }
  __m128i x = fold(x0, k3k4, x1);
  x = fold(x, k3k4, x2);
  x = fold(x, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) {
    x = fold(x, k3k4, load128(p));
  }

  // 128 bits to 64, then 64 to 32 (in bits 32-63 of the low half).
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10),
                    _mm_srli_si128(x, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
      _mm_srli_si128(x, 4));
  // Barrett: q = (x mod x^32) * mu, then x - (q mod x^32) * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x = _mm_xor_si128(x, q);
  // Bits 32-63 by an SSE2 shift, so nothing past SSE2 is needed beside
  // the multiply.
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (size >= kFoldMinBytes && util::have_pclmul()) {
    const std::size_t whole = size & ~std::size_t{15};
    state_ = fold_pclmul(state_, p, whole);
    p += whole;
    size -= whole;
  }
#endif
  update_sliced(p, size);
}

void Crc32::update_sliced(const void* data, std::size_t size) {
  const auto& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state_;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
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

}  // namespace pramsim::durability
