// The seeded deterministic fault model: which modules die, which
// copies/shares are stuck, and which stores corrupt is fixed by
// (seed, sizes) before the computation starts. Two FaultModels built from
// the same spec answer every query identically — fault sweeps are exactly
// replayable from a printed seed, like everything else in pramsim.
//
// Two time regimes, selected by the spec's onset window:
//
//  * static (Chlebus-Gasieniec-Pelc, onset_min = onset_max = 0): every
//    fault is active from step 0 and unchanging during the run — the
//    classic regime, bit-identical to the pre-dynamic model;
//  * dynamic (onset_max > 0): each faulty unit additionally acquires a
//    seed-derived onset step drawn uniformly from [onset_min, onset_max];
//    the fault is inactive before that step and active from it on.
//    WHICH units fail never depends on the window — only WHEN.
//
// Faults never heal by themselves; recovery is MemorySystem::scrub's job.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pram/faults.hpp"
#include "util/rng.hpp"

namespace pramsim::faults {

/// Fault intensities. Counts are exact (sampled without replacement);
/// rates are per-unit Bernoulli probabilities decided by seeded hashing,
/// so the SAME units fail regardless of access order.
struct FaultSpec {
  std::uint64_t seed = 1;
  /// Exactly this many modules die (clamped to the module count).
  std::uint32_t dead_modules = 0;
  /// Additionally, each module dies independently with this probability.
  double module_kill_rate = 0.0;
  /// Each (entity, copy) storage cell is stuck-at garbage w.p. this.
  double stuck_rate = 0.0;
  /// Each store commits a silently corrupted word w.p. this.
  double corruption_rate = 0.0;
  /// Dynamic-fault onset window: with onset_max > 0, each faulty unit
  /// activates at a seed-derived step drawn uniformly from
  /// [onset_min, onset_max] (onset_min = onset_max pins a sharp onset).
  /// Both 0 = static regime: every fault active from step 0.
  std::uint64_t onset_min = 0;
  std::uint64_t onset_max = 0;

  [[nodiscard]] bool inert() const {
    return dead_modules == 0 && module_kill_rate == 0.0 &&
           stuck_rate == 0.0 && corruption_rate == 0.0;
  }
  [[nodiscard]] bool dynamic() const { return onset_max > 0; }
};

/// Scale a prototype's rate axes by `rate` (fault sweeps ramp this);
/// counts, seed, and the onset window pass through unchanged.
[[nodiscard]] FaultSpec at_rate(FaultSpec proto, double rate);

/// One module death of the realized kill set: the step from which
/// `module` is dead (0 for static faults).
struct Onset {
  std::uint64_t step = 0;
  ModuleId module;
};

/// The deterministic pram::FaultHooks implementation. The dead-module
/// set and its onset steps are materialized at construction;
/// stuck/corruption answers are pure seeded-hash functions of their
/// arguments.
class FaultModel final : public pram::FaultHooks {
 public:
  FaultModel(FaultSpec spec, std::uint32_t n_modules);

  [[nodiscard]] bool module_dead(ModuleId module,
                                 std::uint64_t step) const override;
  [[nodiscard]] bool stuck_at(std::uint64_t entity, std::uint32_t copy,
                              std::uint64_t step,
                              pram::Word& value) const override;
  [[nodiscard]] bool corrupt_write(std::uint64_t entity, std::uint32_t copy,
                                   std::uint64_t stamp, std::uint64_t step,
                                   pram::Word& value) const override;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t n_modules() const {
    return static_cast<std::uint32_t>(dead_.size());
  }
  /// Modules that EVER die (at any step; the eventual kill set).
  [[nodiscard]] std::uint32_t dead_module_count() const {
    return static_cast<std::uint32_t>(onsets_.size());
  }
  [[nodiscard]] std::vector<ModuleId> dead_modules() const;
  /// The step at which `module` dies (0 for static faults; meaningful
  /// only for modules in the kill set).
  [[nodiscard]] std::uint64_t module_onset(ModuleId module) const;
  /// The realized kill set in the order the deaths happen: ascending
  /// onset step, ties by ascending module. Consumers that act as the
  /// step clock crosses each death (the onset journal, the WAL's onset
  /// acknowledgements) walk it with a cursor.
  [[nodiscard]] std::span<const Onset> onsets() const { return onsets_; }
  /// Earliest onset among the realized kill set. With a dynamic spec but
  /// an empty kill set (stuck/corruption-only faults, whose per-unit
  /// onsets are lazy hashes over an unbounded domain), returns the onset
  /// window's lower bound — the earliest any fault can activate. 0 in
  /// the static regime.
  [[nodiscard]] std::uint64_t first_onset() const;

 private:
  /// Seeded avalanche over (tag, a, b, c): the one source of per-unit
  /// fault randomness.
  [[nodiscard]] std::uint64_t mix(std::uint64_t tag, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t c) const;
  /// Seed-derived onset step for a faulty unit (0 in the static regime).
  [[nodiscard]] std::uint64_t unit_onset(std::uint64_t tag, std::uint64_t a,
                                         std::uint64_t b) const;

  FaultSpec spec_;
  std::vector<std::uint8_t> dead_;      ///< per-module death flags
  std::vector<std::uint64_t> onset_;    ///< per-module onset steps
  std::vector<Onset> onsets_;           ///< the kill set in death order
};

}  // namespace pramsim::faults
