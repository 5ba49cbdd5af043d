#include "ida/gf256.hpp"

#include "util/isa.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pramsim::ida {

namespace {

struct Tables {
  std::array<GF256::Elem, 255> exp{};
  std::array<std::uint8_t, 256> log{};

  constexpr Tables() {
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 255; ++i) {
      exp[i] = static_cast<GF256::Elem>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) {
        x ^= 0x11D;
      }
    }
    log[0] = 0;  // unused sentinel
  }
};

constexpr Tables kTables{};

/// Split-nibble product tables: lo[c][x] == c * x and hi[c][x] ==
/// c * (x << 4) for x in [0, 16), so c * y == lo[c][y & 15] ^
/// hi[c][y >> 4]. Each row is one 16-byte vpshufb lookup table.
struct NibbleTables {
  alignas(64) std::array<std::array<GF256::Elem, 16>, 256> lo{};
  alignas(64) std::array<std::array<GF256::Elem, 16>, 256> hi{};

  constexpr NibbleTables() {
    for (std::uint32_t c = 1; c < 256; ++c) {
      for (std::uint32_t x = 1; x < 16; ++x) {
        lo[c][x] = product(c, x);
        hi[c][x] = product(c, x << 4);
      }
    }
  }

  static constexpr GF256::Elem product(std::uint32_t a, std::uint32_t b) {
    return kTables.exp[(kTables.log[a] + kTables.log[b]) % 255u];
  }
};

constexpr NibbleTables kNibbles{};

#if defined(__x86_64__)

/// dst[i] ^= c * src[i] over the whole 32-byte chunks of [0, n); returns
/// the number of bytes it covered.
__attribute__((target("avx2"))) std::size_t mul_span_accum_avx2(
    GF256::Elem* dst, const GF256::Elem* src, std::size_t n, GF256::Elem c) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibbles.lo[c].data())));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibbles.hi[c].data())));
  const __m256i low_nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x, low_nibble)),
        _mm256_shuffle_epi8(
            hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), low_nibble)));
    auto* out = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(out,
                        _mm256_xor_si256(_mm256_loadu_si256(out), product));
  }
  return i;
}

#endif

}  // namespace

const std::array<GF256::Elem, 255>& GF256::exp_table() { return kTables.exp; }
const std::array<std::uint8_t, 256>& GF256::log_table() {
  return kTables.log;
}

const GF256::Elem* GF256::mul_row(Elem c) {
  // 64 KiB product table, built once from the exp/log tables. Row-major
  // by the constant, so one span-multiply touches one contiguous row.
  static const std::array<Elem, 256 * 256> kMul = [] {
    std::array<Elem, 256 * 256> table{};
    for (std::uint32_t a = 1; a < 256; ++a) {
      for (std::uint32_t b = 1; b < 256; ++b) {
        const std::uint32_t idx =
            (static_cast<std::uint32_t>(kTables.log[a]) + kTables.log[b]) %
            255u;
        table[a * 256 + b] = kTables.exp[idx];
      }
    }
    return table;
  }();
  return kMul.data() + static_cast<std::size_t>(c) * 256;
}

void GF256::mul_span_accum(Elem* dst, const Elem* src, std::size_t n,
                           Elem c) {
  if (c == 0) {
    return;
  }
  std::size_t done = 0;
#if defined(__x86_64__)
  if (util::have_avx2()) {
    done = mul_span_accum_avx2(dst, src, n, c);
  }
#endif
  mul_span_accum_scalar(dst + done, src + done, n - done, c);
}

}  // namespace pramsim::ida
