// Empirical verification of the Lemma 2 expansion property.
//
// Lemma 2 guarantees (for a good map): for ANY set of q <= n/(2c-1) live
// variables and ANY adversarial choice of which copies remain live, the
// live copies occupy at least (2c-1)q/b distinct modules. Deciding whether
// a concrete map satisfies this for all q-sets is a hard combinatorial
// minimization, so we *measure*:
//
//  * random q-sets of live variables, adversarial copy selection via an
//    iterated greedy concentrator (pick the c copies per variable that fall
//    in the currently most popular modules) — an upper bound on the true
//    minimum coverage, i.e. a pessimistic check;
//  * an exact exponential-time minimizer for tiny instances (tests);
//  * a map-aware adversarial batch generator used by the scheme benches to
//    stress module contention beyond what random traffic produces.
#pragma once

#include <cstdint>
#include <vector>

#include "memmap/memory_map.hpp"
#include "util/strong_id.hpp"

namespace pramsim::memmap {

struct ExpansionResult {
  std::uint64_t q = 0;          ///< live-set size tested
  std::uint32_t trials = 0;     ///< number of sampled live sets
  std::uint32_t redundancy = 0;     ///< r = copies per variable
  std::uint64_t min_distinct = 0;   ///< worst adversarial module coverage
  double mean_distinct = 0.0;       ///< mean adversarial coverage
  std::uint64_t min_distinct_random = 0;  ///< worst coverage, random choice

  /// Lemma 2's requirement is min_distinct >= r*q/b. Returns the measured
  /// margin min_distinct / (r*q/b); >= 1 means the property held on every
  /// sampled live set.
  [[nodiscard]] double ratio_vs_bound(double b) const;
};

/// Measure adversarial live-copy module coverage over `trials` random
/// live sets of size q. `c` is the access threshold (each variable keeps
/// its c adversarially-chosen copies "live"). Deterministic given seed.
[[nodiscard]] ExpansionResult measure_expansion(const MemoryMap& map,
                                                std::uint32_t c,
                                                std::uint64_t q,
                                                std::uint32_t trials,
                                                std::uint64_t seed,
                                                std::uint32_t refine_rounds = 3);

/// Exact minimum module coverage over all per-variable c-subsets of the
/// given live variables. Exponential in vars.size(): intended for tests
/// with q <= 5 and small redundancy.
[[nodiscard]] std::uint64_t exact_min_coverage(const MemoryMap& map,
                                               std::uint32_t c,
                                               const std::vector<VarId>& vars);

/// The iterated-greedy adversarial coverage for one specific live set —
/// the estimator measure_expansion() samples with. Always an upper bound
/// on exact_min_coverage(map, c, vars).
[[nodiscard]] std::uint64_t greedy_min_coverage(const MemoryMap& map,
                                                std::uint32_t c,
                                                const std::vector<VarId>& vars,
                                                std::uint32_t refine_rounds = 3);

/// A batch of `count` distinct variables chosen (from a sampled pool) to
/// concentrate copies in few modules — the scheme benches' worst-case-ish
/// traffic family. Deterministic given seed.
[[nodiscard]] std::vector<VarId> adversarial_batch(const MemoryMap& map,
                                                   std::uint32_t count,
                                                   std::uint64_t seed);

}  // namespace pramsim::memmap
