// Scrub relocations: where the copies or shares a scrub pass moved off
// dead modules now live.
//
// A storage organization places each entity (a majority variable, an IDA
// block) on `units` modules, one per unit (copy or share), through its
// own map. When a unit's module dies, the organization's scrub pass
// re-homes the unit onto a healthy module, and every later placement
// lookup must see the move. RelocationOverlay is that record for every
// organization: the lookup applied on top of the map, the re-homing loop
// that fills it, and its snapshot framing. It stores only the moves; the
// organization, which owns the placement geometry, passes it in.
// Relocation targets come from a seeded-hash probe sequence, a pure
// function of (salt, entity, unit), so they do not depend on scan order
// or on earlier passes.
#pragma once

#include <cstdint>
#include <span>

#include "obs/sink.hpp"
#include "pram/faults.hpp"
#include "pram/memory_system.hpp"
#include "pram/snapshot.hpp"
#include "pram/types.hpp"
#include "util/paged_rows.hpp"

namespace pramsim::pram {

class RelocationOverlay {
 public:
  /// Apply the relocations to `placement`, the map's modules of
  /// `entity` (one per unit). Until the first relocation this returns at
  /// once, so the healthy and degraded value phases pay no lookups.
  void apply(std::uint64_t entity, std::span<ModuleId> placement) const {
    if (moved_.count() == 0) {
      return;
    }
    const std::uint64_t units = placement.size();
    for (std::uint64_t unit = 0; unit < units; ++unit) {
      if (const ModuleId* module = moved_.find(entity * units + unit)) {
        placement[unit] = *module;
      }
    }
  }

  /// Re-home every unit of `entity` whose module in `placement` (its
  /// current placement) is dead at `step` onto a healthy module among
  /// `n_modules` that no other unit of the entity holds, updating
  /// `placement` in place. `salt` seeds the probe sequence; each
  /// organization derives it from its own placement, so instances with
  /// different placements relocate differently. A unit whose earlier
  /// replacement died moves again. Each move is journaled into `sink` as
  /// kRelocation(entity, unit, from, to) and counted in
  /// `result.relocated` and `stats.units_relocated`. Returns the number
  /// of units moved; a unit with no healthy candidate stays.
  std::uint32_t relocate_dead(const FaultHooks& hooks, std::uint64_t step,
                              std::uint32_t n_modules, std::uint64_t salt,
                              std::uint64_t entity,
                              std::span<ModuleId> placement, obs::Sink* sink,
                              ScrubResult& result, ReliabilityStats& stats);

  /// Snapshot framing (put_rows): the entry count, then (key u64,
  /// module u32) per relocated unit in ascending key order,
  /// key = entity * units + unit.
  void snapshot(SnapshotSink& sink) const { put_rows(sink, moved_); }
  /// Replace the overlay with a snapshot's, for `n_keys` (entities times
  /// units) keys over `n_modules` modules. False on a short read, a
  /// repeated or descending key, a key past the key space, or a module
  /// past n_modules: frames no snapshot writes.
  [[nodiscard]] bool restore(SnapshotSource& source, std::uint64_t n_keys,
                             std::uint32_t n_modules) {
    return get_rows(source, moved_, n_keys,
                    [n_modules](std::span<const ModuleId> row) {
                      return row[0].value() < n_modules;
                    });
  }

 private:
  /// (entity * units + unit) -> replacement module, one-element rows.
  util::PagedRows<ModuleId> moved_;
};

}  // namespace pramsim::pram
