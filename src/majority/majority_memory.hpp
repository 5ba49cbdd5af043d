// MajorityMemory: the complete replicated shared-memory organization —
// memory map + timestamped copies + an access engine — packaged as a
// pram::MemorySystem so a real P-RAM program can execute on top of it.
//
// Instantiations:
//  * DmmpcEngine + Lemma 2 map over M = n^(1+eps)    -> Theorem 2 machine
//  * DmmpcEngine + UW map over M = n                 -> UW'87 MPC baseline
//  * core::MotEngine + Lemma 2 map, modules at 2DMOT
//    leaves                                          -> Theorem 3 machine
//  * core::MotEngine + UW map, modules at roots      -> LPP'90 baseline
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "majority/copy_store.hpp"
#include "majority/engine.hpp"
#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"
#include "pram/memory_system.hpp"
#include "util/stats.hpp"

namespace pramsim::majority {

class MajorityMemory final : public pram::MemorySystem {
 public:
  /// Generic form: any access engine over a 2c-1-redundancy map.
  /// `region_words` sets the CopyStore's storage granularity (1 = the
  /// classic word-at-a-time layout, bit-identical to the pre-region
  /// code); widths > 1 store each copy's slice of W consecutive
  /// variables contiguously so scrub can clear whole regions with one
  /// memcmp-majority pass (word-granular fallback on dissent).
  explicit MajorityMemory(std::unique_ptr<AccessEngine> engine,
                          std::uint32_t region_words = 1);

  /// Convenience: DMMPC engine with the given scheduler parameters.
  MajorityMemory(std::shared_ptr<const memmap::MemoryMap> map,
                 SchedulerConfig scheduler, std::uint32_t region_words = 1);

  /// Serves the plan's request list (reads first, then write-only
  /// variables; requesters synthesized round-robin over the engine's
  /// processors) through the engine's run_step_into, then runs the value
  /// phase over the precomputed read/write joins. Under fault hooks the
  /// degraded protocol flags reads with no surviving copy in `ctx`.
  /// Under ServeBackend::kGroupParallel the value phase (healthy
  /// freshest/commit, degraded vote/store) fans the plan's module groups
  /// across ctx.executor()'s workers — the engine schedule stays serial
  /// (it is a global protocol) — with per-chunk telemetry folded in
  /// chunk order, so results are bit-identical at any worker count.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// Group-parallel work units are module groups keyed by the variable's
  /// FIRST mapped copy module (the base map's placement; scrub
  /// relocations never move a variable between groups — the key only
  /// partitions work, it never resolves placement). Stable and
  /// thread-safe: a pure function of the immutable map.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override;
  [[nodiscard]] bool wants_plan_groups() const override {
    return backend_ == pram::ServeBackend::kGroupParallel;
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return pram::kGroupParallel;
  }
  pram::ServeBackend set_serve_backend(pram::ServeBackend backend) override {
    backend_ = backend;
    return backend_;
  }

  [[nodiscard]] std::uint64_t size() const override {
    return engine_->map().num_vars();
  }
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;
  [[nodiscard]] double storage_redundancy() const override {
    return static_cast<double>(engine_->map().redundancy());
  }
  [[nodiscard]] const memmap::MemoryMap* memory_map() const override {
    return &engine_->map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return engine_->map().num_modules();
  }

  /// Switch to the degraded-mode protocol: writes store through to every
  /// surviving copy and reads majority-vote over all survivors (the
  /// engine still prices the step; the extra copy traffic shows up as
  /// work). With hooks installed, peek() also votes, so verification
  /// observes what a fault-aware reader would. Fault queries are stamped
  /// with the current step, so dynamic onsets land mid-run.
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    hooks_ = hooks;
    return true;
  }

  /// Native scrub: walk the address space from a persistent cursor, and
  /// for every variable whose copy set is degraded at the current step
  /// (erased or dissenting copies), RELOCATE the copies sitting on dead
  /// modules to deterministically-chosen healthy ones and re-stamp the
  /// vote winner onto every live copy. One budget unit = one variable
  /// scanned. A pass over a healthy variable writes nothing.
  pram::ScrubResult scrub(std::uint64_t budget) override;
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return reliability_;
  }

  // ----- introspection for tests / benches -----
  [[nodiscard]] AccessEngine& engine() { return *engine_; }
  [[nodiscard]] const AccessEngine& engine() const { return *engine_; }
  [[nodiscard]] const CopyStore& store() const { return store_; }
  [[nodiscard]] CopyStore& mutable_store() { return store_; }
  [[nodiscard]] const memmap::MemoryMap& map() const {
    return engine_->map();
  }
  /// Distribution of per-step time (rounds/cycles) so far.
  [[nodiscard]] const util::RunningStats& time_stats() const {
    return time_stats_;
  }
  [[nodiscard]] const ProtocolStats& last_stats() const {
    return last_stats_;
  }

 protected:
  /// Native snapshot: the CopyStore's region rows (values AND stamps,
  /// sorted by region id for a canonical stream), the scrub relocation
  /// overlay, and the scrub cursors — bit-exact storage state. The
  /// peek/poke default would collapse per-copy stamps and lose
  /// relocations; this path restores the exact pre-crash storage so
  /// recovery + scrub behave as if the crash never happened.
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  /// Serial degraded-mode protocol: majority-vote reads over every
  /// surviving copy (flagging reads with none in `ctx`), write-through to
  /// every survivor. Returns the extra copy traffic (fault work).
  std::uint64_t degraded_serve(const pram::AccessPlan& plan,
                               pram::ServeContext& ctx);
  /// The variable's CURRENT copy placement: the map's assignment with
  /// scrub relocations applied on top. Identical to the map until the
  /// first relocation.
  void copies_into_current(VarId var, std::span<ModuleId> out) const;

  /// Bump the degraded-protocol obs counters (shared by the serial loop
  /// and the group-parallel fold so both backends report identically).
  void obs_degraded_counts(std::uint64_t masked, std::uint64_t uncorrectable,
                           std::uint64_t erased, std::uint64_t dropped) const;

  /// Group-parallel value phase shared by the healthy and degraded
  /// serve paths: fan the plan's groups across ctx.executor()'s workers
  /// (chunk telemetry folded in chunk order afterwards).
  std::uint64_t serve_groups_parallel(const pram::AccessPlan& plan,
                                      pram::ServeContext& ctx,
                                      const EngineResult& result);

  std::unique_ptr<AccessEngine> engine_;
  CopyStore store_;
  std::uint32_t n_processors_;
  util::RunningStats time_stats_;
  ProtocolStats last_stats_;
  pram::ServeBackend backend_ = pram::ServeBackend::kSerial;
  /// serve() scratch: the plan's requests with synthesized requesters,
  /// and the engine result buffers, both reused across steps.
  std::vector<VarRequest> request_scratch_;
  EngineResult engine_scratch_;
  /// Per-chunk telemetry slots for the group-parallel degraded phase
  /// (folded deterministically after the fan-out).
  struct ChunkTally {
    pram::ReliabilityStats stats;
    std::uint64_t fault_work = 0;
    /// Journal events recorded by this chunk's worker; appended to the
    /// sink in chunk order after the fan-out so group-parallel journals
    /// match serial ones (the per-step canonical sort does the rest).
    std::vector<obs::Event> events;
  };
  std::vector<ChunkTally> chunk_scratch_;
  const pram::FaultHooks* hooks_ = nullptr;  ///< non-owning; null = healthy
  pram::ReliabilityStats reliability_;
  /// Scrub relocation overlay: (var * r + copy) -> replacement module for
  /// copies moved off dead modules. Lookup-only (order never observed).
  std::unordered_map<std::uint64_t, ModuleId> relocated_;
  std::uint64_t scrub_cursor_ = 0;  ///< next variable a scrub pass scans
  /// Corruption re-roll counter for repair stores (distinct from the
  /// step-stamp namespace, so a repair never replays the corruption roll
  /// of a same-step protocol write).
  std::uint64_t scrub_stores_ = 0;
  /// Relocation-probe salt derived from the map's actual placement, so
  /// two instances with different map seeds relocate differently.
  std::uint64_t map_salt_ = 0;
};

}  // namespace pramsim::majority
