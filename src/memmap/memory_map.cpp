#include "memmap/memory_map.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pramsim::memmap {

MemoryMap::MemoryMap(std::uint64_t m_vars, std::uint32_t n_modules,
                     std::uint32_t redundancy)
    : m_vars_(m_vars), n_modules_(n_modules), redundancy_(redundancy) {
  PRAMSIM_ASSERT(m_vars >= 1);
  PRAMSIM_ASSERT(n_modules >= 1);
  PRAMSIM_ASSERT(redundancy >= 1);
  PRAMSIM_ASSERT_MSG(redundancy <= n_modules,
                     "cannot place r distinct copies in fewer than r modules");
}

std::vector<ModuleId> MemoryMap::copies(VarId var) const {
  std::vector<ModuleId> out(redundancy());
  copies_into(var, out);
  return out;
}

namespace {

/// Sample `r` distinct modules out of `M` into `out` using rejection; for
/// the r << M regime this is O(r) expected.
void sample_distinct_modules(util::Rng& rng, std::uint32_t n_modules,
                             std::span<ModuleId> out) {
  const std::size_t r = out.size();
  for (std::size_t i = 0; i < r; ++i) {
    while (true) {
      const auto candidate =
          static_cast<std::uint32_t>(rng.below(n_modules));
      bool fresh = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (out[j].value() == candidate) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        out[i] = ModuleId(candidate);
        break;
      }
    }
  }
}

}  // namespace

TableMap::TableMap(std::uint64_t m_vars, std::uint32_t n_modules,
                   std::uint32_t redundancy, std::uint64_t seed)
    : MemoryMap(m_vars, n_modules, redundancy),
      table_(m_vars * redundancy),
      load_(n_modules, 0) {
  util::Rng rng(seed);
  std::vector<ModuleId> buf(redundancy);
  for (std::uint64_t v = 0; v < m_vars; ++v) {
    sample_distinct_modules(rng, n_modules, buf);
    for (std::uint32_t i = 0; i < redundancy; ++i) {
      table_[v * redundancy + i] = buf[i].value();
      ++load_[buf[i].value()];
    }
  }
}

void TableMap::copies_into(VarId var, std::span<ModuleId> out) const {
  PRAMSIM_ASSERT(var.index() < num_vars());
  PRAMSIM_ASSERT(out.size() == redundancy());
  const std::uint64_t base = var.index() * redundancy();
  for (std::uint32_t i = 0; i < redundancy(); ++i) {
    out[i] = ModuleId(table_[base + i]);
  }
}

std::uint32_t TableMap::module_load(ModuleId module) const {
  PRAMSIM_ASSERT(module.index() < load_.size());
  return load_[module.index()];
}

std::uint32_t TableMap::max_module_load() const {
  return *std::max_element(load_.begin(), load_.end());
}

double TableMap::load_imbalance() const {
  const double ideal = static_cast<double>(num_vars()) * redundancy() /
                       static_cast<double>(num_modules());
  return ideal > 0.0 ? static_cast<double>(max_module_load()) / ideal : 0.0;
}

HashedMap::HashedMap(std::uint64_t m_vars, std::uint32_t n_modules,
                     std::uint32_t redundancy, std::uint64_t seed)
    : MemoryMap(m_vars, n_modules, redundancy), seed_(seed) {}

void HashedMap::copies_into(VarId var, std::span<ModuleId> out) const {
  PRAMSIM_ASSERT(var.index() < num_vars());
  PRAMSIM_ASSERT(out.size() == redundancy());
  // Per-variable deterministic stream: a processor can recompute any
  // variable's copy set locally in O(r) time, which is exactly the paper's
  // "simple computations within a processor" desideratum.
  util::SplitMix64 mixer(seed_ ^ (0x9E3779B97F4A7C15ULL * (var.value() + 1)));
  util::Rng rng(mixer.next());
  sample_distinct_modules(rng, num_modules(), out);
}

}  // namespace pramsim::memmap
