// Deterministic, seedable pseudo-randomness.
//
// All randomness in pramsim flows through Xoshiro256** seeded via
// SplitMix64. The library never touches std::random_device: the Lemma 2
// memory maps, the trace generators and the Monte-Carlo verifiers must be
// exactly reproducible from a printed seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace pramsim::util {

/// SplitMix64: used only to expand a single 64-bit seed into the
/// Xoshiro256** state (the construction recommended by its authors).
class SplitMix64 {
 public:
  /// The state increment and the output function's two multipliers
  /// (memmap::HashedMap's vector kernel recomputes this generator).
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kMul1 = 0xBF58476D1CE4E5B9ULL;
  static constexpr std::uint64_t kMul2 = 0x94D049BB133111EBULL;

  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * kMul1;
    z = (z ^ (z >> 27)) * kMul2;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, high-quality, 256-bit-state generator. Satisfies
/// std::uniform_random_bit_generator so it can drive <random> if needed,
/// though pramsim uses its own bias-free bounded sampling below.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// with rejection). Precondition: bound >= 1.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an arbitrary random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    const std::size_t n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// A uniformly random permutation of 0..n-1.
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// k distinct values sampled uniformly from [0, n) (Floyd's algorithm);
  /// result is in the order generated, not sorted. Precondition: k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

  /// A decorrelated child generator (for per-thread / per-trial streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace pramsim::util
