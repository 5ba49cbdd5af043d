#include "pram/relocation.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace pramsim::pram {

namespace {

/// The first module of (salt, entity, unit)'s probe sequence that is
/// alive at `step` and not in `taken` (an entity keeps its units on
/// distinct modules). The probe count is bounded, so a machine with
/// (nearly) every module dead terminates; false when none was found.
bool pick_healthy_module(const FaultHooks& hooks, std::uint64_t step,
                         std::uint32_t n_modules, std::uint64_t salt,
                         std::uint64_t entity, std::uint32_t unit,
                         std::span<const ModuleId> taken, ModuleId& out) {
  util::SplitMix64 probe(salt ^ entity * 0x9E3779B97F4A7C15ULL ^
                         (unit + 1) * 0xBF58476D1CE4E5B9ULL);
  const std::uint64_t attempts = 4ULL * n_modules + 16;
  for (std::uint64_t attempt = 0; attempt < attempts; ++attempt) {
    const ModuleId candidate(
        static_cast<std::uint32_t>(probe.next() % n_modules));
    if (!hooks.module_dead(candidate, step) &&
        std::ranges::find(taken, candidate) == taken.end()) {
      out = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

std::uint32_t RelocationOverlay::relocate_dead(
    const FaultHooks& hooks, std::uint64_t step, std::uint32_t n_modules,
    std::uint64_t salt, std::uint64_t entity, std::span<ModuleId> placement,
    obs::Sink* sink, ScrubResult& result, ReliabilityStats& stats) {
  const auto units = static_cast<std::uint32_t>(placement.size());
  std::uint32_t relocated = 0;
  for (std::uint32_t unit = 0; unit < units; ++unit) {
    if (!hooks.module_dead(placement[unit], step)) {
      continue;
    }
    ModuleId replacement;
    if (!pick_healthy_module(hooks, step, n_modules, salt, entity, unit,
                             placement, replacement)) {
      continue;
    }
    if constexpr (obs::kEnabled) {
      if (sink != nullptr) {
        sink->journal.append(step, obs::EventKind::kRelocation, entity, unit,
                             placement[unit].index(), replacement.index());
      }
    }
    *moved_.insert(entity * units + unit) = replacement;
    placement[unit] = replacement;
    ++relocated;
  }
  result.relocated += relocated;
  stats.units_relocated += relocated;
  return relocated;
}

}  // namespace pramsim::pram
