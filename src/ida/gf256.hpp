// GF(2^8) arithmetic for Rabin's information dispersal (Rabin 1989,
// referenced by the paper as Schuster's alternative route to constant
// storage redundancy).
//
// Field: GF(256) with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D); alpha = 2 is a generator. exp/log
// tables are generated at compile time, so multiplication and division
// are two table lookups — the hot operations of dispersal coding.
// Bulk coding goes through mul_span_accum, whose vector kernel is
// described below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/assert.hpp"

namespace pramsim::ida {

class GF256 {
 public:
  using Elem = std::uint8_t;

  [[nodiscard]] static constexpr Elem add(Elem a, Elem b) {
    return a ^ b;  // characteristic 2: addition == subtraction == xor
  }
  [[nodiscard]] static constexpr Elem sub(Elem a, Elem b) { return a ^ b; }

  [[nodiscard]] static Elem mul(Elem a, Elem b) {
    if (a == 0 || b == 0) {
      return 0;
    }
    const std::uint32_t idx =
        (static_cast<std::uint32_t>(log_table()[a]) + log_table()[b]) % 255u;
    return exp_table()[idx];
  }

  [[nodiscard]] static Elem inv(Elem a) {
    PRAMSIM_ASSERT_MSG(a != 0, "zero has no inverse in GF(256)");
    const std::uint32_t idx =
        (255u - static_cast<std::uint32_t>(log_table()[a])) % 255u;
    return exp_table()[idx];
  }

  [[nodiscard]] static Elem div(Elem a, Elem b) {
    PRAMSIM_ASSERT_MSG(b != 0, "division by zero in GF(256)");
    if (a == 0) {
      return 0;
    }
    const std::uint32_t idx =
        (static_cast<std::uint32_t>(log_table()[a]) + 255u -
         log_table()[b]) %
        255u;
    return exp_table()[idx];
  }

  [[nodiscard]] static Elem pow(Elem a, std::uint32_t e) {
    if (e == 0) {
      return 1;
    }
    if (a == 0) {
      return 0;
    }
    // The multiplicative group has order 255, so the exponent reduces
    // mod 255 first; log[a] * e itself would wrap uint32_t for large e.
    return exp_table()[(static_cast<std::uint32_t>(log_table()[a]) *
                        (e % 255u)) %
                       255u];
  }

  /// alpha^i for i in [0, 255); alpha = 2 generates the multiplicative
  /// group, so alpha^0..alpha^254 enumerate all nonzero elements.
  [[nodiscard]] static Elem alpha_pow(std::uint32_t i) {
    return exp_table()[i % 255];
  }

  // ----- span arithmetic (bulk encode/decode) -----
  //
  // A linear-combination step over a span multiplies every byte by ONE
  // field constant c. Multiplication by c is linear over GF(2), so
  // c * x = c * (x & 0x0F) ^ c * (x & 0xF0): two 16-entry tables per
  // constant (8 KiB for all 256, built at compile time) cover every
  // product. On x86-64 hosts with AVX2 (util::have_avx2, probed once
  // per process on first use), mul_span_accum looks both nibbles of 32
  // bytes up at
  // once with vpshufb; the bytes past the last whole 32-byte chunk, and
  // every byte on other hosts, go through the scalar loop below. Both
  // are exact field arithmetic, so they agree bit for bit.

  /// Row c of the full multiplication table: mul_row(c)[x] == c * x.
  [[nodiscard]] static const Elem* mul_row(Elem c);

  /// dst[i] ^= c * src[i] for i in [0, n): the accumulating step of a
  /// GF(256) matrix-vector product over byte spans. dst and src must not
  /// overlap unless they are equal ranges.
  static void mul_span_accum(Elem* dst, const Elem* src, std::size_t n,
                             Elem c);

  /// The scalar form of mul_span_accum, one load from the 64 KiB product
  /// row per byte (c == 0 skips, c == 1 is a plain xor): the fallback,
  /// the vector kernel's tail, and the reference tests compare it with.
  static void mul_span_accum_scalar(Elem* dst, const Elem* src,
                                    std::size_t n, Elem c) {
    if (c == 0) {
      return;
    }
    if (c == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] ^= src[i];
      }
      return;
    }
    const Elem* row = mul_row(c);
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] ^= row[src[i]];
    }
  }

 private:
  static constexpr std::uint32_t kPoly = 0x11D;

  [[nodiscard]] static const std::array<Elem, 255>& exp_table();
  [[nodiscard]] static const std::array<std::uint8_t, 256>& log_table();
};

}  // namespace pramsim::ida
