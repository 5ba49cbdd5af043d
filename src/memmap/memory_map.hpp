// Memory maps: the assignment of variable copies to memory modules.
//
// The paper's Lemma 2 shows a map with 2c-1 copies per variable over
// M = n^(1+eps) modules exists such that live copies always expand into
// many distinct modules. The proof is probabilistic and non-constructive,
// so we instantiate the map by seeded uniform-random placement (the
// distribution the proof integrates over) and verify the expansion
// property empirically (expansion.hpp).
//
// Two implementations:
//  * TableMap  - explicit lookup table, the object the paper actually
//                posits (it costs O(m r log M) bits, which the paper's
//                conclusion highlights as the price of non-constructivity).
//  * HashedMap - copies computed on demand from a per-variable PRNG stream;
//                O(1) storage. This realizes the paper's open-problem wish
//                ("a memory map that could be constructed by simple
//                computations within a processor") with pseudo-randomness
//                standing in for an explicit construction, and lets the
//                benches scale to m = n^2 for large n without m-sized
//                tables.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/strong_id.hpp"

namespace pramsim::memmap {

/// Abstract map from variable to the modules holding its copies.
class MemoryMap {
 public:
  MemoryMap(std::uint64_t m_vars, std::uint32_t n_modules,
            std::uint32_t redundancy);
  virtual ~MemoryMap() = default;

  MemoryMap(const MemoryMap&) = delete;
  MemoryMap& operator=(const MemoryMap&) = delete;

  /// Number of shared variables (m).
  [[nodiscard]] std::uint64_t num_vars() const { return m_vars_; }
  /// Number of memory modules (M).
  [[nodiscard]] std::uint32_t num_modules() const { return n_modules_; }
  /// Copies per variable (r = 2c-1 in the replicated schemes).
  [[nodiscard]] std::uint32_t redundancy() const { return redundancy_; }

  /// Write the modules of `var`'s copies into `out` (size == redundancy()).
  /// Modules are distinct within one variable.
  virtual void copies_into(VarId var, std::span<ModuleId> out) const = 0;

  /// Write the copies of every variable in `vars` into one flat table:
  /// variable i's modules, exactly as copies_into writes them, at
  /// out[i*r, (i+1)*r), so out.size() == vars.size() * redundancy().
  /// Keys may repeat and come in any order. This default loops
  /// copies_into.
  virtual void copies_batch(std::span<const VarId> vars,
                            std::span<ModuleId> out) const;

  /// Convenience allocating variant.
  [[nodiscard]] std::vector<ModuleId> copies(VarId var) const;

 private:
  std::uint64_t m_vars_;
  std::uint32_t n_modules_;
  std::uint32_t redundancy_;
};

/// Explicit-table map: r distinct uniform modules per variable, chosen at
/// construction. Supports exact module-load statistics.
class TableMap final : public MemoryMap {
 public:
  /// Uniform random placement; each variable's r modules are distinct.
  /// Requires redundancy <= n_modules.
  TableMap(std::uint64_t m_vars, std::uint32_t n_modules,
           std::uint32_t redundancy, std::uint64_t seed);

  void copies_into(VarId var, std::span<ModuleId> out) const override;

  /// Copies stored in `module` (for granularity/VLSI accounting).
  [[nodiscard]] std::uint32_t module_load(ModuleId module) const;
  [[nodiscard]] std::uint32_t max_module_load() const;
  /// Perfectly balanced load would be ceil(m*r/M).
  [[nodiscard]] double load_imbalance() const;

 private:
  std::vector<std::uint32_t> table_;  // m * r module ids
  std::vector<std::uint32_t> load_;   // copies per module
};

/// Computed map: copies derived on demand from hash(seed, var); no table.
/// copies_into is the reference stream: SplitMix64 seeds a per-variable
/// Xoshiro256**, and Lemire's bounded draw picks each copy's module,
/// redrawing modules the variable already holds.
class HashedMap final : public MemoryMap {
 public:
  HashedMap(std::uint64_t m_vars, std::uint32_t n_modules,
            std::uint32_t redundancy, std::uint64_t seed);

  void copies_into(VarId var, std::span<ModuleId> out) const override;

  /// On x86-64 hosts with AVX2 (util::have_avx2) and r <= 64, runs the
  /// stream for four variables at once, one per 64-bit lane. A lane that
  /// leaves the stream's straight line (a Lemire rejection, a module it
  /// already holds, the all-zero-state guard) is placed again by
  /// copies_into, and so is the tail past the last whole group of four
  /// and every variable on other hosts, so the table always equals
  /// copies_into's.
  void copies_batch(std::span<const VarId> vars,
                    std::span<ModuleId> out) const override;

 private:
  std::uint64_t seed_;
};

}  // namespace pramsim::memmap
