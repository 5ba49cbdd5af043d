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
class HashedMap final : public MemoryMap {
 public:
  HashedMap(std::uint64_t m_vars, std::uint32_t n_modules,
            std::uint32_t redundancy, std::uint64_t seed);

  void copies_into(VarId var, std::span<ModuleId> out) const override;

 private:
  std::uint64_t seed_;
};

}  // namespace pramsim::memmap
