// Scheme-agnostic simulation pipeline: feeds synthetic access batches
// (pram/trace.hpp) and map-adversarial batches through any memory
// organization behind the unified pram::MemorySystem interface. Each
// batch is combined ONCE into an arena-backed pram::AccessPlan
// (pram::PlanBuilder) and served through MemorySystem::serve by one step
// loop that every run shares: serve, then any due scrub pass, then the
// run's between-step hook. Trace-fed runs overlap plan building with
// serving (a generator thread builds plan N+1 while plan N is served)
// unless they already run inside parallel shards. Stress traffic is
// sharded WITHIN trials — every (trial, family) pair is an independent
// shard — with util::parallel_for, then merged in deterministic (trial,
// family, step) order so results are bit-identical at any worker-thread
// count. This is the measurement loop behind every cross-scheme bench; no
// caller builds a per-scheme loop by hand.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <string>

#include "pram/plan_builder.hpp"
#include "core/schemes.hpp"
#include "durability/recovery.hpp"
#include "faults/fault_model.hpp"
#include "majority/engine.hpp"
#include "obs/sink.hpp"
#include "pram/memory_system.hpp"
#include "pram/trace.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace pramsim::core {

/// Aggregate over every step served: simulated time, work, live-set and
/// contention telemetry, and the scheme's storage redundancy so cost can
/// be weighted by the memory it actually consumes.
struct TraceRunResult {
  util::RunningStats time;   ///< per-step simulated time (rounds/cycles)
  util::RunningStats work;   ///< per-step copy/share accesses
  util::RunningStats live_after_stage1;
  util::RunningStats max_queue;  ///< per-step peak module/edge contention
  std::uint64_t steps = 0;
  double storage_factor = 1.0;  ///< redundancy of the scheme measured
  /// Reliability telemetry (all-zero unless the run injected faults).
  pram::ReliabilityStats reliability;
  /// First fault intensity at which the scheme SILENTLY returned a wrong
  /// value (set by run_fault_sweep); negative = never broke in the sweep.
  double breaking_fault_rate = -1.0;
  /// Background-scrub telemetry (all-zero unless StressOptions enabled
  /// scrubbing): passes the driver interleaved and what they performed.
  std::uint64_t scrub_passes = 0;
  pram::ScrubResult scrub;
  /// Observability capture (StressOptions::obs): per-shard sinks
  /// folded in shard order, so counters and journal are bit-identical at
  /// any worker count; phase timings are wall-clock (see obs/sink.hpp).
  /// Empty unless the run enabled observation.
  obs::Sink obs;

  /// Redundancy-weighted cost: mean step time scaled by the storage
  /// blow-up — the "time x memory" currency the paper's trade-offs
  /// compare (constant-redundancy schemes win exactly here).
  [[nodiscard]] double redundancy_weighted_cost() const {
    return time.mean() * storage_factor;
  }

  void merge(const TraceRunResult& other);
};

/// Run every batch of `trace` through `memory`: each batch is combined
/// once into a plan and memory.serve() consumes it. A trace of at least 4
/// batches builds its plans on a generator thread while the calling
/// thread serves; the result is the same either way.
[[nodiscard]] TraceRunResult run_trace(
    pram::MemorySystem& memory, std::span<const pram::AccessBatch> trace);

/// Stress-run parameters: trace families x steps, optional
/// map-adversarial batches, and independent trials. Work is sharded
/// WITHIN trials: every (trial, family) pair — and the adversarial phase
/// of each trial — runs as its own shard on a fresh memory built from the
/// same spec (same scheme seed: the map under test is fixed; traffic
/// seeds derive from (seed, trial, family)). Shards spread across host
/// threads via util::parallel_for and merge in (trial, family, step)
/// order, so results are deterministic given (spec, options) at ANY
/// worker-thread count.
struct StressOptions {
  std::size_t steps_per_family = 3;
  std::uint64_t seed = 1;
  /// Trace families to sweep; empty = pram::exclusive_trace_families().
  std::vector<pram::TraceFamily> families = {};
  /// Per-family knobs for the generated traffic (Zipf exponent,
  /// working-set geometry, hotspot fraction, write mix) — one set shared
  /// by every swept family.
  pram::TraceParams trace = {};
  /// Include worst-case batches: crafted against the scheme's memory map
  /// when it exposes one, otherwise against the scheme's own placement
  /// knowledge (pram::MemorySystem::adversarial_vars — e.g. the hashed
  /// baseline's known-hash preimage attack). Skipped only for schemes
  /// with neither (e.g. kIda).
  bool include_map_adversarial = true;
  /// Independent trials (fresh memory, shifted traffic seed).
  std::size_t trials = 1;
  /// Background scrubbing: every `scrub_interval` served steps the driver
  /// calls memory.scrub(scrub_budget) between steps (0 = disabled). The
  /// pass runs on the serving thread, after the step completes and
  /// before the next plan is served, so overlapped plan building is
  /// unaffected (plans never depend on memory state).
  std::uint32_t scrub_interval = 0;
  std::uint64_t scrub_budget = 0;
  /// Observability: when set, attach an obs::Sink with these options
  /// (phase-timer sampling, journal ring bound) to every shard's memory
  /// and fold the sinks in shard order into TraceRunResult::obs; the
  /// merged journal keeps the same ring bound. Unset, the hot loop
  /// carries a null observer and the hooks cost one predicted branch.
  std::optional<obs::SinkOptions> obs = std::nullopt;
};

/// Recovery-probe parameters: a single machine serves one trace family
/// while dynamic faults (the spec's onset window) land mid-run and a
/// budgeted scrub pass runs every `scrub_interval` steps; the probe
/// records the per-step masked-fault trajectory the recovery time is
/// read off. Plan building overlaps serving and the value phase fans
/// across an executor; trajectories are bit-identical at any
/// worker-thread count.
struct RecoveryOptions {
  std::size_t steps = 64;
  std::uint64_t seed = 1;
  pram::TraceFamily family = pram::TraceFamily::kUniform;
  /// Knobs for the probe's traffic (Zipf exponent, working set, ...).
  pram::TraceParams trace = {};
  /// Scrub cadence (0 = scrubbing disabled: degradation-only baseline).
  std::uint32_t scrub_interval = 4;
  std::uint64_t scrub_budget = 64;
  /// A step is "recovered" when its masked+uncorrectable rate (bad reads
  /// per read) is at or below this.
  double recovery_threshold = 0.02;
  /// Observability, as StressOptions: capture the probe's fault onsets /
  /// degraded votes / scrub repairs into RecoveryResult::obs.
  std::optional<obs::SinkOptions> obs = std::nullopt;
};

/// Fault-sweep parameters: ramp the prototype's rate axes through
/// `rates` (faults::at_rate), running the same stress traffic at each
/// level.
struct FaultSweepOptions {
  std::vector<double> rates = {0.0, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4};
  /// Which fault axes scale with the ramp (defaults: module kills and
  /// write corruption; stuck cells off). Give the proto an onset window
  /// (FaultSpec::onset_min/onset_max) for fail-during-run sweeps.
  faults::FaultSpec proto{
      .seed = 1, .dead_modules = 0, .module_kill_rate = 1.0,
      .stuck_rate = 0.0, .corruption_rate = 1.0};
  StressOptions stress;
  /// When set, additionally run a single-machine recovery probe
  /// (run_recovery) with these options at each level and report
  /// steps-to-recover alongside the breaking point. Meaningful with a
  /// dynamic-onset proto + scrubbing enabled; the probe never affects the
  /// sweep's own telemetry.
  std::optional<RecoveryOptions> recovery = std::nullopt;
};

/// One step of a recovery trajectory (per-step deltas, not cumulative).
struct RecoveryPoint {
  std::uint64_t step = 0;       ///< 1-based step number
  std::uint64_t reads = 0;      ///< reads served this step
  std::uint64_t masked = 0;     ///< reads masked despite >= 1 bad unit
  std::uint64_t uncorrectable = 0;  ///< flagged losses this step
  std::uint64_t wrong = 0;      ///< silent lies this step (oracle)
  std::uint64_t repaired = 0;   ///< entities repaired by scrubs this step
  std::uint64_t relocated = 0;  ///< copies/shares re-homed this step
  double degraded_rate = 0.0;   ///< (masked + uncorrectable) / reads
};

struct RecoveryResult {
  std::vector<RecoveryPoint> trajectory;
  /// Earliest fault onset the model realized: the first dead-module
  /// onset, or the onset window's start for stuck/corruption-only specs
  /// (whose lazy per-unit onsets cannot be enumerated); 0 when static.
  std::int64_t onset_step = -1;
  /// First step whose degraded rate exceeded the threshold; -1 = never
  /// degraded (faults missed the touched working set).
  std::int64_t first_degraded_step = -1;
  /// First step from which the degraded rate stays at or below the
  /// threshold for the rest of the run; -1 = still degraded at the end.
  std::int64_t recovered_step = -1;
  /// recovered_step - first_degraded_step; -1 when either is undefined.
  std::int64_t recovery_steps = -1;
  double peak_degraded_rate = 0.0;
  double final_degraded_rate = 0.0;  ///< last recorded step's rate
  pram::ReliabilityStats reliability;  ///< run totals
  pram::ScrubResult scrub;             ///< scrub totals
  /// Observability capture (RecoveryOptions::obs): the probe is one
  /// machine, so the journal IS the onset->repair story in step order.
  /// Empty unless enabled.
  obs::Sink obs;
};

/// One ramp level's outcome.
struct FaultLevelResult {
  double rate = 0.0;
  TraceRunResult run;
  /// Scrub-driven recovery time at this level (FaultSweepOptions::
  /// recovery); semantics as RecoveryResult::recovery_steps.
  std::int64_t recovery_steps = -1;
};

struct FaultSweepResult {
  std::vector<FaultLevelResult> levels;
  /// Everything merged; `total.breaking_fault_rate` is the first rate
  /// whose run silently returned a wrong value (the breaking point).
  TraceRunResult total;
  /// First rate with any flagged (uncorrectable) read; negative = none.
  double first_uncorrectable_rate = -1.0;
  /// Slowest measured recovery across levels; -1 = none measured (or
  /// some level never recovered, reported per level).
  std::int64_t worst_recovery_steps = -1;
};

/// Durability knobs for crash-recovery runs: where the WAL and
/// checkpoints live and how often each is made durable. The WAL flushes
/// (group commit) every `wal_flush_interval` committed steps; a full
/// checkpoint is written every `checkpoint_interval` steps, after which
/// the WAL is truncated through the checkpointed step. The run keeps the
/// Checkpointer's default retention (two files).
struct DurabilityOptions {
  std::string directory;  ///< holds wal.log + ckpt-<step>.bin files
  std::uint32_t wal_flush_interval = 2;
  std::uint32_t checkpoint_interval = 8;
  /// Post-replay scrub budget handed to durability::recover (0 = skip).
  std::uint64_t scrub_budget = 256;
};

/// Where the simulated crash lands relative to the durability protocol's
/// phase boundaries — the kill-point axis of the crash-test matrix.
enum class KillPoint : std::uint8_t {
  /// Flush + checkpoint + truncate, then exit: recovery must be a
  /// no-op that still lands on the exact committed state.
  kCleanShutdown = 0,
  /// The final WAL record is torn mid-write (the file ends inside the
  /// record's byte span): recovery must use the last COMPLETE record.
  kMidWalAppend,
  /// Crash right after a group-commit flush: the buffered-but-unflushed
  /// suffix (if any) is lost; everything flushed must survive.
  kAfterWalFlush,
  /// Crash mid-checkpoint write: a torn ckpt-<step>.bin prefix is on
  /// disk; recovery must fall back to the previous checkpoint + WAL.
  kMidCheckpoint,
  /// Crash after the checkpoint is durable but BEFORE the WAL truncate:
  /// the log still holds records the checkpoint covers; replay must
  /// filter (or idempotently re-apply) them.
  kAfterCheckpointPreTruncate,
};

[[nodiscard]] const char* to_string(KillPoint point);
[[nodiscard]] std::vector<KillPoint> all_kill_points();

/// Crash-recovery run parameters: a single machine serves one trace
/// family with durability enabled, is killed at a kill point on a
/// seed-derived step, restarts from disk, and is verified bit-for-bit
/// against an uninterrupted reference run of the same trace.
struct CrashRecoveryOptions {
  std::size_t steps = 32;
  std::uint64_t seed = 1;
  pram::TraceFamily family = pram::TraceFamily::kUniform;
  pram::TraceParams trace = {};
  DurabilityOptions durability;
  KillPoint kill_point = KillPoint::kAfterWalFlush;
  /// Kill after serving this step (1-based); 0 = derive from the seed.
  std::uint64_t kill_step = 0;
  /// Observability, as StressOptions: capture the run + recovery's
  /// checkpoint/replay events into CrashRecoveryResult::obs.
  std::optional<obs::SinkOptions> obs = std::nullopt;
};

struct CrashRecoveryResult {
  std::uint64_t kill_step = 0;     ///< last step served before the crash
  /// The durable horizon at the crash (recovery's contract: every
  /// committed write at or before this step survives).
  std::uint64_t durable_step = 0;
  durability::RecoveryOutcome recovery;
  /// Recovered state equals the uninterrupted reference state at the
  /// durable horizon, across ALL m variables.
  bool bit_exact = false;
  std::uint64_t vars_checked = 0;
  /// Committed-and-durable writes the recovered memory lost (0 required).
  std::uint64_t lost_committed_writes = 0;
  double recovery_seconds = 0.0;  ///< wall clock around recover()
  std::uint64_t checkpoint_bytes = 0;  ///< last checkpoint's file size
  std::uint64_t wal_bytes = 0;         ///< WAL size at the crash
  /// Observability capture (CrashRecoveryOptions::obs).
  obs::Sink obs;
};

/// The one driver every scheme kind runs through. Construct from a spec;
/// the pipeline assembles the scheme, owns a prototype instance for
/// metadata/one-shot steps, and builds fresh per-trial memories for
/// sharded stress runs.
class SimulationPipeline {
 public:
  explicit SimulationPipeline(SchemeSpec spec);

  /// The assembled prototype (metadata: r, switches, model, ...).
  [[nodiscard]] const SchemeInstance& scheme() const { return instance_; }
  [[nodiscard]] const SchemeSpec& spec() const { return spec_; }

  /// Serve one raw batch on the prototype memory (combining included).
  pram::MemStepCost run_batch(const pram::AccessBatch& batch);

  /// Families x steps (+ adversarial) x trials, merged deterministically.
  [[nodiscard]] TraceRunResult run_stress(const StressOptions& options = {}) const;

  /// run_stress with every per-trial memory wrapped in a
  /// faults::FaultableMemory under `fault_spec` (per-trial fault seeds
  /// are decorrelated). The result's `reliability` carries the merged
  /// telemetry; wrong_reads > 0 means the scheme silently lied.
  [[nodiscard]] TraceRunResult run_with_faults(
      const faults::FaultSpec& fault_spec,
      const StressOptions& options = {}) const;

  /// Ramp fault intensity until (and past) each scheme's breaking point.
  [[nodiscard]] FaultSweepResult run_fault_sweep(
      const FaultSweepOptions& options = {}) const;

  /// The onset -> degradation -> scrub-recovery probe: one fresh machine
  /// under `fault_spec` (typically dynamic-onset) serves one trace
  /// family while the driver scrubs on the configured cadence, recording
  /// the per-step masked/uncorrectable trajectory and the recovery time
  /// (steps from first degradation until the degraded rate stays below
  /// the threshold). Deterministic given (spec, fault_spec, options).
  [[nodiscard]] RecoveryResult run_recovery(
      const faults::FaultSpec& fault_spec,
      const RecoveryOptions& options = {}) const;

  /// The crash-test harness: run a durable machine (WAL + checkpoints)
  /// to a kill step, crash it at the configured KillPoint (including
  /// file surgery for torn-write points), recover a fresh machine from
  /// disk, and verify the recovered state bit-for-bit against an
  /// uninterrupted reference run truncated at the durable horizon.
  /// Deterministic given (spec, options); fault_spec may be null for
  /// fault-free durability runs.
  [[nodiscard]] CrashRecoveryResult run_crash_recovery(
      const CrashRecoveryOptions& options = {},
      const faults::FaultSpec* fault_spec = nullptr) const;

 private:
  [[nodiscard]] TraceRunResult run_stress_impl(
      const StressOptions& options,
      const faults::FaultSpec* fault_spec) const;

  SchemeSpec spec_;
  SchemeInstance instance_;
  /// Plan slot for one-shot run_batch serving on the prototype.
  pram::PlanBuilder builder_;
  /// Group-fan-out workers for one-shot serving on the prototype (the
  /// stress/recovery paths keep per-shard executors of their own).
  util::Executor executor_;
};

}  // namespace pramsim::core
