// Integer and log-space math used throughout the simulator and the
// Theorem 1 / Lemma 2 calculators.
//
// Conventions: all logs named log2* are base 2 (the paper's bounds are
// stated up to constant factors, but base-2 keeps measured fits and printed
// tables consistent); ln* are natural. Counting quantities (binomials over
// sets of memory maps) overflow anything fixed-width, so they are handled
// exclusively in log space via lgamma.
#pragma once

#include <cstdint>

namespace pramsim::util {

/// floor(log2(x)) for x >= 1. Precondition: x >= 1.
[[nodiscard]] int ilog2_floor(std::uint64_t x);

/// ceil(log2(x)) for x >= 1. ilog2_ceil(1) == 0.
[[nodiscard]] int ilog2_ceil(std::uint64_t x);

/// True iff x is a power of two (x >= 1).
[[nodiscard]] bool is_pow2(std::uint64_t x);

/// Smallest power of two >= x (x >= 1).
[[nodiscard]] std::uint64_t next_pow2(std::uint64_t x);

/// ceil(a / b) for b > 0.
[[nodiscard]] std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b);

/// Integer power base^exp; asserts on overflow of uint64.
[[nodiscard]] std::uint64_t ipow(std::uint64_t base, unsigned exp);

/// Integer square root: floor(sqrt(x)).
[[nodiscard]] std::uint64_t isqrt(std::uint64_t x);

/// Natural log of the binomial coefficient C(n, k).
/// Returns -infinity when k < 0 or k > n (the coefficient is 0).
[[nodiscard]] double ln_binomial(double n, double k);

/// log2 of C(n, k); -infinity when the coefficient is 0.
[[nodiscard]] double log2_binomial(double n, double k);

/// The paper's recurring time shape log^2(n) / log log(n), in base 2,
/// defined for n >= 4 (log log n > 0); asserts otherwise.
[[nodiscard]] double log2_sq_over_loglog(double n);

/// Numerically stable log(exp(a) + exp(b)) for natural-log inputs;
/// tolerates -infinity arguments.
[[nodiscard]] double ln_add_exp(double a, double b);

}  // namespace pramsim::util
