// CachedMemory: a fixed-capacity hot-set cache in front of any
// pram::MemorySystem.
//
// The redundant organizations (majority copies, IDA dispersal, hashed
// placement) pay their constant-redundancy tax on EVERY access. Under
// skewed traffic (pram::TraceFamily::kZipfian / kWorkingSet) most of a
// step's accesses revisit a small hot set, so a cache in front of the
// engine converts "redundancy cost per access" into "redundancy cost per
// miss". The design follows the classic storage-engine cache/evict split
// (clock second-chance eviction, dirty write-back) adapted to the P-RAM
// step model:
//
//  * one variable per line; lookup via a paged var -> slot table,
//    eviction via a clock hand with one reference bit (second chance);
//  * writes allocate: the line absorbs the store (dirty) and the inner
//    scheme sees it only when the line is written back on eviction;
//  * serve(plan, ctx): every plan read probes the cache, and the misses
//    plus the step's write-back/bypass traffic form a RESIDUAL step that
//    a private pram::PlanBuilder joins (and groups, when the inner scheme
//    wants groups) and the inner scheme serves as ONE inner step. Inner
//    results scatter back into the caller's ServeContext span, and inner
//    outage flags fold into the caller's context.
//
// Fault consistency (see docs/fault-model.md): FaultHooks pass through
// to the inner scheme, which applies them at its copy/share granularity,
// and the cache tracks the step-stamped fault clock. A CLEAN line whose
// backing may have changed since fill — any module died after the
// line's fill step, or a scrub pass relocated storage — is INVALIDATED
// on its next hit and re-served from the inner scheme as a miss, so a
// cached run degrades exactly like an uncached one instead of masking
// faults with stale hits. DIRTY lines are never invalidated: the cache
// holds the only up-to-date copy of a dirty value (the inner scheme
// never saw the store), so re-serving it from degraded storage would
// manufacture the silent wrong read the trace-consistency oracle exists
// to catch.
//
// Determinism: all cache state lives on the serving thread. The residual
// plan hands the caller's executor through to the inner scheme, so a
// group-parallel inner backend still fans the residual's request ranges
// across workers — but hit/miss classification, eviction order, and
// telemetry are serial, keeping results and obs snapshots bit-identical
// at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pram/access_plan.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "util/paged_rows.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::cache {

struct CacheConfig {
  /// Capacity in lines (one variable per line). Must be >= 1: a
  /// zero-capacity cache is a configuration error — use the bare inner
  /// memory instead.
  std::uint64_t capacity = 1024;
};

/// Lifetime telemetry (also mirrored into obs counters per step).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;
  /// Accesses served through the inner scheme because every line was
  /// pinned by this step (capacity smaller than the step's footprint).
  std::uint64_t bypasses = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class CachedMemory final : public pram::MemorySystem {
 public:
  CachedMemory(std::unique_ptr<pram::MemorySystem> inner, CacheConfig config);

  /// Probe per plan read, forward a residual plan of misses +
  /// write-backs to the inner scheme, scatter results and outage flags
  /// back into `ctx`.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// The outer plan needs no group arrays (the cache rebuilds residual
  /// groups itself, after hit filtering); grouping keys pass through for
  /// introspection.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override { return false; }
  [[nodiscard]] std::uint32_t capabilities() const override { return 0; }
  /// Backend selection passes through: the inner scheme may serve the
  /// residual plan group-parallel even though the cache front is serial.
  pram::ServeBackend set_serve_backend(
      pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }

  [[nodiscard]] std::uint64_t size() const override {
    return inner_->size();
  }
  /// Dirty lines are authoritative (the inner scheme never saw the
  /// store); everything else defers to the inner memory.
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;

  // The widened engine surface passes through, so a CachedMemory drops
  // into pram::Machine and the pipeline exactly where the bare inner did.
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const memmap::MemoryMap* memory_map() const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  [[nodiscard]] std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return inner_->reliability();
  }

  /// Hooks forward to the inner scheme, and the cache tracks the fault
  /// clock itself when the inner applies them (an inner memory that
  /// rejects them never degrades, so nothing cached goes stale).
  bool set_fault_hooks(const pram::FaultHooks* hooks) override;

  /// Repair passes through; any relocation stamps the cache so clean
  /// lines filled before the move are invalidated on their next hit.
  pram::ScrubResult scrub(std::uint64_t budget) override;

  /// One sink observes both layers (step stamps order the events).
  void set_observer(obs::Sink* sink) override {
    pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t capacity() const { return config_.capacity; }
  /// Lines currently held (<= capacity()).
  [[nodiscard]] std::uint64_t occupancy() const { return index_.count(); }

 protected:
  /// Snapshot ORDERING contract: dirty lines are the only up-to-date
  /// copy of their values (the inner scheme never saw the store), so
  /// they are written back to the inner scheme FIRST — before the inner
  /// state is serialized — or the checkpoint would capture stale backing
  /// state and recovery would silently lose committed writes. After the
  /// flush the body is simply the inner memory's full nested frame;
  /// restore rebuilds the inner scheme and restarts with a COLD cache
  /// (cache contents are a performance artifact, not committed state).
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Line {
    VarId var{};
    pram::Word value = 0;
    std::uint64_t fill_step = 0;   ///< step the current value was installed
    std::uint64_t touch_step = 0;  ///< last step that used the line (pin)
    std::uint8_t dirty = 0;
    std::uint8_t ref = 0;  ///< clock reference bit (second chance)
  };

  enum class Staleness : std::uint8_t { kFresh, kDeadBacking, kRelocated };

  /// Reset per-step scratch (residual lists, step-local tallies).
  void begin_step();
  /// Track the fault clock: bump last_death_step_ when the dead-module
  /// count grew (O(num_modules) scan, only while hooks are installed).
  void refresh_fault_epoch(std::uint64_t now);
  /// Clean-line staleness under the fault clock: a clean line filled
  /// before the latest relocation or module death is stale.
  [[nodiscard]] Staleness classify_line(const Line& line) const;
  /// Probe the cache for every plan read: hits fill `out` immediately,
  /// misses (and stale-invalidated lines) queue residual reads.
  void classify_reads(std::span<const VarId> reads,
                      std::span<pram::Word> out, std::uint64_t now);
  /// Apply this step's combined writes to the cache (write-allocate);
  /// evicted dirty lines and bypassed writes queue residual writes.
  void apply_writes(std::span<const pram::VarWrite> writes,
                    std::uint64_t now);
  /// Reserve fill targets for the residual reads BEFORE serving the
  /// inner step, so fill evictions' write-backs join the same residual.
  void reserve_fills(std::uint64_t now);
  /// Scatter inner results into ctx's output, commit fills (flagged
  /// reads release their reserved line instead of caching a known loss),
  /// and fold the inner outage flags into ctx.
  void commit_results(pram::ServeContext& ctx,
                      std::span<const std::uint8_t> residual_flags);
  /// Mirror this step's stat deltas into the obs registry.
  void publish_step_stats();

  /// Free or evictable slot, or kNoSlot when every line is pinned by the
  /// current step. Eviction write-backs queue residual writes.
  [[nodiscard]] std::uint32_t acquire_slot(std::uint64_t now);
  void install_line(std::uint32_t slot, VarId var, pram::Word value,
                    std::uint8_t dirty, std::uint64_t now);
  void drop_line(std::uint32_t slot);
  /// Queue a residual write, last-wins on duplicate variables (a bypass
  /// write may follow a same-step write-back of the same variable).
  void queue_residual_write(VarId var, pram::Word value);

  std::unique_ptr<pram::MemorySystem> inner_;
  CacheConfig config_;

  std::vector<Line> lines_;
  util::PagedRows<std::uint32_t> index_;  ///< var -> slot of its line
  std::vector<std::uint32_t> free_;
  std::size_t hand_ = 0;  ///< clock hand over lines_

  // Fault-clock tracking (only while the inner scheme applies hooks).
  const pram::FaultHooks* hooks_ = nullptr;
  std::uint64_t dead_modules_seen_ = 0;
  std::uint64_t last_death_step_ = 0;
  /// Lines with fill_step < reloc_stamp_ predate a scrub relocation.
  std::uint64_t reloc_stamp_ = 0;

  CacheStats stats_;
  CacheStats step_stats_;

  // Residual-step scratch (reused across steps).
  std::vector<VarId> residual_reads_;
  std::vector<std::uint32_t> residual_to_outer_;
  std::vector<std::uint32_t> fill_slot_;
  std::vector<pram::VarWrite> residual_writes_;
  util::ScratchMap<std::uint32_t, std::uint32_t> residual_write_index_;
  std::vector<pram::Word> residual_values_;
  /// Joins the residual step; a variable both missed as a read and
  /// bypassed as a write becomes one request.
  pram::PlanBuilder residual_builder_;
  pram::ServeContext residual_ctx_;
};

}  // namespace pramsim::cache
