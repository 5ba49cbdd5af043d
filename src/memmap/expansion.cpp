#include "memmap/expansion.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pramsim::memmap {

double ExpansionResult::ratio_vs_bound(double b) const {
  PRAMSIM_ASSERT(b > 0.0 && q > 0 && redundancy > 0);
  const double bound =
      static_cast<double>(redundancy) * static_cast<double>(q) / b;
  return static_cast<double>(min_distinct) / bound;
}

namespace {

/// Count distinct modules among the selected copies.
std::uint64_t count_distinct(const std::vector<std::vector<ModuleId>>& copies,
                             const std::vector<std::vector<std::uint8_t>>& keep) {
  std::unordered_set<std::uint32_t> modules;
  for (std::size_t v = 0; v < copies.size(); ++v) {
    for (std::size_t i = 0; i < copies[v].size(); ++i) {
      if (keep[v][i] != 0) {
        modules.insert(copies[v][i].value());
      }
    }
  }
  return modules.size();
}

/// Greedy concentrator: iteratively keep, for each variable, the c copies
/// residing in the modules most shared with other kept copies.
std::uint64_t greedy_adversarial_coverage(
    const std::vector<std::vector<ModuleId>>& copies, std::uint32_t c,
    std::uint32_t refine_rounds) {
  const std::size_t q = copies.size();
  std::vector<std::vector<std::uint8_t>> keep(q);
  for (std::size_t v = 0; v < q; ++v) {
    keep[v].assign(copies[v].size(), 1);
  }
  std::uint64_t best = count_distinct(copies, keep);
  for (std::uint32_t round = 0; round < refine_rounds; ++round) {
    // Popularity of each module among currently kept copies.
    std::unordered_map<std::uint32_t, std::uint32_t> popularity;
    for (std::size_t v = 0; v < q; ++v) {
      for (std::size_t i = 0; i < copies[v].size(); ++i) {
        if (keep[v][i] != 0) {
          ++popularity[copies[v][i].value()];
        }
      }
    }
    // Keep the c most-popular copies per variable (ties: lower module id,
    // for determinism).
    for (std::size_t v = 0; v < q; ++v) {
      const auto r = copies[v].size();
      std::vector<std::size_t> order(r);
      for (std::size_t i = 0; i < r; ++i) {
        order[i] = i;
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
        const auto pa = popularity[copies[v][a].value()];
        const auto pb = popularity[copies[v][b2].value()];
        if (pa != pb) {
          return pa > pb;
        }
        return copies[v][a].value() < copies[v][b2].value();
      });
      keep[v].assign(r, 0);
      for (std::uint32_t i = 0; i < c && i < r; ++i) {
        keep[v][order[i]] = 1;
      }
    }
    best = std::min(best, count_distinct(copies, keep));
  }
  return best;
}

std::uint64_t random_coverage(const std::vector<std::vector<ModuleId>>& copies,
                              std::uint32_t c, util::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> keep(copies.size());
  for (std::size_t v = 0; v < copies.size(); ++v) {
    const auto r = copies[v].size();
    keep[v].assign(r, 0);
    const auto chosen = rng.sample_without_replacement(r, std::min<std::uint64_t>(c, r));
    for (const auto i : chosen) {
      keep[v][i] = 1;
    }
  }
  return count_distinct(copies, keep);
}

}  // namespace

ExpansionResult measure_expansion(const MemoryMap& map, std::uint32_t c,
                                  std::uint64_t q, std::uint32_t trials,
                                  std::uint64_t seed,
                                  std::uint32_t refine_rounds) {
  PRAMSIM_ASSERT(q >= 1 && q <= map.num_vars());
  PRAMSIM_ASSERT(c >= 1 && c <= map.redundancy());
  util::Rng rng(seed);
  ExpansionResult result;
  result.q = q;
  result.trials = trials;
  result.redundancy = map.redundancy();
  result.min_distinct = ~0ULL;
  result.min_distinct_random = ~0ULL;
  double sum = 0.0;
  std::vector<std::vector<ModuleId>> copies(q);
  for (std::uint32_t t = 0; t < trials; ++t) {
    const auto vars = rng.sample_without_replacement(map.num_vars(), q);
    for (std::size_t v = 0; v < q; ++v) {
      copies[v] = map.copies(VarId(static_cast<std::uint32_t>(vars[v])));
    }
    const auto adversarial =
        greedy_adversarial_coverage(copies, c, refine_rounds);
    const auto random = random_coverage(copies, c, rng);
    result.min_distinct = std::min(result.min_distinct, adversarial);
    result.min_distinct_random = std::min(result.min_distinct_random, random);
    sum += static_cast<double>(adversarial);
  }
  result.mean_distinct = trials > 0 ? sum / trials : 0.0;
  return result;
}

std::uint64_t greedy_min_coverage(const MemoryMap& map, std::uint32_t c,
                                  const std::vector<VarId>& vars,
                                  std::uint32_t refine_rounds) {
  PRAMSIM_ASSERT(!vars.empty());
  std::vector<std::vector<ModuleId>> copies;
  copies.reserve(vars.size());
  for (const auto v : vars) {
    copies.push_back(map.copies(v));
  }
  return greedy_adversarial_coverage(copies, c, refine_rounds);
}

std::uint64_t exact_min_coverage(const MemoryMap& map, std::uint32_t c,
                                 const std::vector<VarId>& vars) {
  PRAMSIM_ASSERT(!vars.empty());
  PRAMSIM_ASSERT_MSG(vars.size() <= 6, "exact minimizer is exponential");
  const std::uint32_t r = map.redundancy();
  PRAMSIM_ASSERT(c <= r);

  std::vector<std::vector<ModuleId>> copies;
  copies.reserve(vars.size());
  for (const auto v : vars) {
    copies.push_back(map.copies(v));
  }

  // Enumerate all c-subsets of r as bitmasks once.
  std::vector<std::uint32_t> subsets;
  for (std::uint32_t mask = 0; mask < (1U << r); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) == c) {
      subsets.push_back(mask);
    }
  }

  std::uint64_t best = ~0ULL;
  std::vector<std::size_t> choice(vars.size(), 0);
  while (true) {
    std::unordered_set<std::uint32_t> modules;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const std::uint32_t mask = subsets[choice[v]];
      for (std::uint32_t i = 0; i < r; ++i) {
        if ((mask >> i) & 1U) {
          modules.insert(copies[v][i].value());
        }
      }
    }
    best = std::min<std::uint64_t>(best, modules.size());
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < vars.size()) {
      if (++choice[pos] < subsets.size()) {
        break;
      }
      choice[pos] = 0;
      ++pos;
    }
    if (pos == vars.size()) {
      break;
    }
  }
  return best;
}

std::vector<VarId> adversarial_batch(const MemoryMap& map, std::uint32_t count,
                                     std::uint64_t seed) {
  PRAMSIM_ASSERT(count >= 1 && count <= map.num_vars());
  util::Rng rng(seed);
  // Sample a pool of candidate variables several times larger than the
  // batch, find the modules most loaded within the pool, and prefer
  // variables with the most copies in those hot modules.
  const std::uint64_t pool_size =
      std::min<std::uint64_t>(map.num_vars(), 8ULL * count);
  const auto pool = rng.sample_without_replacement(map.num_vars(), pool_size);

  // The pool's copies, placed by one batch call: candidate i's at
  // [i*r, (i+1)*r).
  const std::uint32_t r = map.redundancy();
  std::vector<VarId> pool_vars(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool_vars[i] = VarId(static_cast<std::uint32_t>(pool[i]));
  }
  std::vector<ModuleId> pool_copies(pool.size() * r);
  map.copies_batch(pool_vars, pool_copies);
  std::unordered_map<std::uint32_t, std::uint32_t> module_load;
  for (const auto mod : pool_copies) {
    ++module_load[mod.value()];
  }

  // Score each candidate by the total load of the modules its copies
  // occupy (higher = more collision-prone batch member).
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    order[i] = i;
  }
  std::vector<std::uint64_t> score(pool.size(), 0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::uint32_t k = 0; k < r; ++k) {
      score[i] += module_load[pool_copies[i * r + k].value()];
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (score[a] != score[b]) {
                       return score[a] > score[b];
                     }
                     return pool[a] < pool[b];
                   });

  std::vector<VarId> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.emplace_back(static_cast<std::uint32_t>(pool[order[i]]));
  }
  return batch;
}

}  // namespace pramsim::memmap
