#include "util/math.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace pramsim::util {

int ilog2_floor(std::uint64_t x) {
  PRAMSIM_ASSERT(x >= 1);
  return 63 - std::countl_zero(x);
}

int ilog2_ceil(std::uint64_t x) {
  PRAMSIM_ASSERT(x >= 1);
  const int f = ilog2_floor(x);
  return is_pow2(x) ? f : f + 1;
}

bool is_pow2(std::uint64_t x) { return x >= 1 && std::has_single_bit(x); }

std::uint64_t next_pow2(std::uint64_t x) {
  PRAMSIM_ASSERT(x >= 1);
  return std::bit_ceil(x);
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  PRAMSIM_ASSERT(b > 0);
  return (a + b - 1) / b;
}

std::uint64_t ipow(std::uint64_t base, unsigned exp) {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < exp; ++i) {
    PRAMSIM_ASSERT_MSG(base == 0 ||
                           result <= std::numeric_limits<std::uint64_t>::max() / base,
                       "ipow overflow");
    result *= base;
  }
  return result;
}

std::uint64_t isqrt(std::uint64_t x) {
  if (x == 0) {
    return 0;
  }
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  // std::sqrt on large uint64 can be off by one in either direction.
  while (r > 0 && r * r > x) {
    --r;
  }
  while ((r + 1) * (r + 1) <= x) {
    ++r;
  }
  return r;
}

double ln_binomial(double n, double k) {
  if (k < 0.0 || k > n || n < 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

double log2_binomial(double n, double k) {
  constexpr double kLn2 = 0.6931471805599453;
  return ln_binomial(n, k) / kLn2;
}

double log2_sq_over_loglog(double n) {
  PRAMSIM_ASSERT(n >= 4.0);
  const double l = std::log2(n);
  return l * l / std::log2(l);
}

double ln_add_exp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) {
    return b;
  }
  if (b == -std::numeric_limits<double>::infinity()) {
    return a;
  }
  const double hi = a > b ? a : b;
  const double lo = a > b ? b : a;
  return hi + std::log1p(std::exp(lo - hi));
}

}  // namespace pramsim::util
