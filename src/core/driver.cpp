#include "core/driver.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <utility>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "faults/trace_checker.hpp"
#include "memmap/expansion.hpp"
#include "pram/serve_context.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pramsim::core {

void TraceRunResult::merge(const TraceRunResult& other) {
  time.merge(other.time);
  work.merge(other.work);
  live_after_stage1.merge(other.live_after_stage1);
  max_queue.merge(other.max_queue);
  steps += other.steps;
  reliability.merge(other.reliability);
  scrub_passes += other.scrub_passes;
  scrub.merge(other.scrub);
  obs.merge(other.obs);
  if (other.breaking_fault_rate >= 0.0 &&
      (breaking_fault_rate < 0.0 ||
       other.breaking_fault_rate < breaking_fault_rate)) {
    breaking_fault_rate = other.breaking_fault_rate;
  }
}

namespace {

/// How the step loop serves one run: the executor every step's context
/// carries, the observer its timers and scrub counters write into, the
/// background-scrub cadence, and whether plan building may run ahead of
/// serving.
struct StepLoop {
  util::Executor* executor = nullptr;
  obs::Sink* sink = nullptr;
  /// Scrub every this many served steps (0 = never), between steps.
  std::uint32_t scrub_interval = 0;
  std::uint64_t scrub_budget = 0;
  /// The source is a pre-generated trace and the caller's shard level is
  /// serial, so a generator thread may build plan i+1 while plan i is
  /// served. The loop engages it for runs of at least 4 steps.
  bool overlap = false;
};

/// Yields batch i of a run, or null to end the run early. Overlapped runs
/// call it on the generator thread and never end early.
using BatchSource = std::function<const pram::AccessBatch*(std::size_t)>;

/// Runs on the serving thread after step `step` (1-based) was served and
/// any scrub pass that was due ran (`scrub`, null when none did). The
/// plan stays valid during the call.
using AfterStep =
    std::function<void(std::size_t step, const pram::AccessPlan& plan,
                       const pram::MemStepCost& cost,
                       const pram::ScrubResult* scrub)>;

BatchSource from_trace(std::span<const pram::AccessBatch> trace) {
  return [trace](std::size_t i) { return &trace[i]; };
}

/// The one step loop every run serves through. Each step binds the
/// context, serves the plan, runs the scrub cadence, then calls `after`.
/// Overlapped, a generator thread builds plan i+1 into the spare builder
/// slot while this thread serves plan i. Results are identical either
/// way: plans are served strictly in order, plan building never touches
/// memory state (plan_group_of is immutable by contract), and scrub
/// passes and hooks run on the serving thread between steps.
void serve_steps(pram::MemorySystem& memory, const StepLoop& loop,
                 std::size_t steps, const BatchSource& source,
                 const AfterStep& after) {
  // Sampling decision for `step` (null = not timed), shared by every
  // timer around that step.
  const auto timing = [&loop](std::size_t step) -> obs::PhaseSet* {
    return loop.sink != nullptr && loop.sink->sample(step)
               ? &loop.sink->phases
               : nullptr;
  };
  std::vector<pram::Word> values;
  pram::ServeContext ctx({}, loop.executor);
  const auto serve_step = [&](std::size_t step,
                               const pram::AccessPlan& plan) {
    values.resize(plan.reads.size());
    ctx.bind(values);
    pram::MemStepCost cost;
    {
      obs::ScopedPhase timer(timing(step), obs::Phase::kServe);
      cost = memory.serve(plan, ctx);
    }
    pram::ScrubResult pass;
    const bool scrub_due = loop.scrub_interval != 0 &&
                           loop.scrub_budget != 0 &&
                           step % loop.scrub_interval == 0;
    if (scrub_due) {
      {
        obs::ScopedPhase timer(timing(step), obs::Phase::kScrub);
        pass = memory.scrub(loop.scrub_budget);
      }
      if (loop.sink != nullptr) {
        loop.sink->metrics.add("scrub.passes");
        loop.sink->metrics.add("scrub.scanned", pass.scanned);
        loop.sink->metrics.add("scrub.repaired", pass.repaired);
        loop.sink->metrics.add("scrub.relocated", pass.relocated);
        loop.sink->metrics.add("scrub.work", pass.work);
      }
    }
    after(step, plan, cost, scrub_due ? &pass : nullptr);
  };

  if (!loop.overlap || steps < 4) {
    pram::PlanBuilder builder;
    for (std::size_t i = 0; i < steps; ++i) {
      const pram::AccessBatch* batch = source(i);
      if (batch == nullptr) {
        return;
      }
      const pram::AccessPlan* plan;
      {
        obs::ScopedPhase timer(timing(i + 1), obs::Phase::kPlanBuild);
        plan = &builder.build(*batch, memory);
      }
      serve_step(i + 1, *plan);
    }
    return;
  }

  pram::PlanBuilder slots[2];
  std::mutex mutex;
  std::condition_variable_any cv;
  std::size_t built = 0;   // plans fully built
  std::size_t served = 0;  // plans fully served (their slot is free)
  // When serving or a hook throws, the generator's destructor stops it at
  // its next slot wait and joins it before the slots go away.
  std::jthread generator([&](const std::stop_token& stop) {
    for (std::size_t i = 0; i < steps; ++i) {
      {
        std::unique_lock lock(mutex);
        if (!cv.wait(lock, stop, [&] { return i < served + 2; })) {
          return;
        }
      }
      {
        // The generator thread writes ONLY the kPlanBuild row; the
        // serving thread writes kServe/kScrub — distinct PhaseSet slots,
        // single writer each (see obs/phase.hpp).
        obs::ScopedPhase timer(timing(i + 1), obs::Phase::kPlanBuild);
        slots[i % 2].build(*source(i), memory);
      }
      {
        const std::lock_guard lock(mutex);
        built = i + 1;
      }
      cv.notify_all();
    }
  });
  for (std::size_t i = 0; i < steps; ++i) {
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return built > i; });
    }
    serve_step(i + 1, slots[i % 2].plan());
    {
      const std::lock_guard lock(mutex);
      served = i + 1;
    }
    cv.notify_all();
  }
}

/// The stress hook: fold each step's cost and scrub pass into `result`.
AfterStep tally(TraceRunResult& result) {
  return [&result](std::size_t, const pram::AccessPlan&,
                   const pram::MemStepCost& cost,
                   const pram::ScrubResult* scrub) {
    result.time.add(static_cast<double>(cost.time));
    result.work.add(static_cast<double>(cost.work));
    result.live_after_stage1.add(static_cast<double>(cost.live_after_stage1));
    result.max_queue.add(static_cast<double>(cost.max_queue));
    ++result.steps;
    if (scrub != nullptr) {
      ++result.scrub_passes;
      result.scrub.merge(*scrub);
    }
  };
}

/// A fresh memory for `spec`, behind a FaultableMemory when `fault_spec`
/// is set.
std::unique_ptr<pram::MemorySystem> assemble(
    const SchemeSpec& spec, const faults::FaultSpec* fault_spec) {
  std::unique_ptr<pram::MemorySystem> memory = make_memory(spec);
  if (fault_spec != nullptr) {
    memory = std::make_unique<faults::FaultableMemory>(std::move(memory),
                                                       *fault_spec);
  }
  return memory;
}

/// Make `sink` the run's observer when `options` asks for one (and the
/// build compiled the hooks in); returns it, or null.
obs::Sink* observe(obs::Sink& sink,
                   const std::optional<obs::SinkOptions>& options) {
  if (!obs::kEnabled || !options) {
    return nullptr;
  }
  sink = obs::Sink(*options);
  return &sink;
}

}  // namespace

TraceRunResult run_trace(pram::MemorySystem& memory,
                         std::span<const pram::AccessBatch> trace) {
  TraceRunResult result;
  result.storage_factor = memory.storage_redundancy();
  serve_steps(memory, {.overlap = true}, trace.size(), from_trace(trace),
              tally(result));
  return result;
}

SimulationPipeline::SimulationPipeline(SchemeSpec spec)
    : spec_(spec), instance_(make_scheme(spec)) {}

pram::MemStepCost SimulationPipeline::run_batch(const pram::AccessBatch& batch) {
  const pram::AccessPlan& plan = builder_.build(batch, *instance_.memory);
  std::vector<pram::Word> values(plan.reads.size());
  pram::ServeContext ctx(values, &executor_);
  return instance_.memory->serve(plan, ctx);
}

TraceRunResult SimulationPipeline::run_stress(
    const StressOptions& options) const {
  return run_stress_impl(options, nullptr);
}

TraceRunResult SimulationPipeline::run_with_faults(
    const faults::FaultSpec& fault_spec, const StressOptions& options) const {
  return run_stress_impl(options, &fault_spec);
}

TraceRunResult SimulationPipeline::run_stress_impl(
    const StressOptions& options, const faults::FaultSpec* fault_spec) const {
  // Per-run setup hoisted out of the shard loop (it used to be re-derived
  // inside every trial): the family list — including the
  // exclusive_trace_families() default — is resolved exactly once;
  // per-shard setup below only shifts seeds.
  const std::vector<pram::TraceFamily>& families =
      options.families.empty() ? pram::exclusive_trace_families()
                               : options.families;
  const std::uint32_t n = spec_.n;
  const std::uint64_t m = instance_.m;
  const std::size_t trials = std::max<std::size_t>(options.trials, 1);
  // Within-trial sharding: every (trial, family) pair — plus each trial's
  // adversarial phase — is one shard, so trials = 1 workloads spread over
  // the host's threads too.
  const std::size_t stages =
      families.size() + (options.include_map_adversarial ? 1 : 0);
  // Overlap plan building with serving — and hand shards an executor
  // for intra-step fan-out of request ranges — only when the shard
  // level is not already saturating the host's cores: a generator
  // thread (or a worker pool) per shard on top of a full parallel_for
  // would just oversubscribe.
  const bool shard_level_serial =
      util::parallel_workers(trials * stages) == 1;

  std::vector<TraceRunResult> shards(trials * stages);
  util::parallel_for(0, trials * stages, [&](std::size_t s) {
    const std::size_t trial = s / stages;
    const std::size_t stage = s % stages;
    // Fresh memory per shard (same scheme seed: the map under test is
    // fixed; the traffic stream derives from (seed, trial, family)).
    // Under fault injection every shard of a trial shares the trial's
    // fault seed: one machine's static fault set, observed per family.
    faults::FaultSpec trial_faults;
    if (fault_spec != nullptr) {
      trial_faults = *fault_spec;
      trial_faults.seed += trial * 0xC2B2AE3D27D4EB4FULL;
    }
    const auto memory =
        assemble(spec_, fault_spec != nullptr ? &trial_faults : nullptr);
    util::Rng rng(options.seed + trial * 0x9E3779B97F4A7C15ULL);
    util::Executor executor;
    TraceRunResult& shard = shards[s];
    shard.storage_factor = memory->storage_redundancy();
    // Shard-local sink, folded into the merged result in shard order below.
    obs::Sink* sink = observe(shard.obs, options.obs);
    memory->set_observer(sink);
    StepLoop loop{.executor = shard_level_serial ? &executor : nullptr,
                  .sink = sink,
                  .scrub_interval = options.scrub_interval,
                  .scrub_budget = options.scrub_budget,
                  .overlap = shard_level_serial};
    if (stage < families.size()) {
      // Reach this family's stream: family f uses the (f+1)-th split of
      // the trial generator, exactly as the sequential loop drew them.
      for (std::size_t f = 0; f < stage; ++f) {
        (void)rng.split();
      }
      auto family_rng = rng.split();
      const auto trace = pram::make_trace(families[stage], n, m,
                                          options.steps_per_family,
                                          family_rng, options.trace);
      serve_steps(*memory, loop, trace.size(), from_trace(trace),
                  tally(shard));
    } else {
      for (std::size_t f = 0; f < families.size(); ++f) {
        (void)rng.split();
      }
      // Map-crafted congestion batches when the scheme exposes its map;
      // otherwise the scheme's own adversary (e.g. the hashed baseline's
      // known-hash preimage attack). Schemes with neither are skipped.
      // Generation stays interleaved with serving — never pre-built or
      // overlapped — so a state-dependent adversary (virtual
      // adversarial_vars) keeps tracking any placement change serving
      // causes (e.g. a rehashing backend redrawing its hash).
      const memmap::MemoryMap* map = memory->memory_map();
      pram::AccessBatch batch;
      loop.overlap = false;
      serve_steps(
          *memory, loop, options.steps_per_family,
          [&](std::size_t) -> const pram::AccessBatch* {
            const auto vars =
                map != nullptr ? memmap::adversarial_batch(*map, n, rng.next())
                               : memory->adversarial_vars(n, rng.next());
            if (vars.empty()) {
              return nullptr;
            }
            batch.clear();
            batch.reserve(vars.size());
            for (std::uint32_t i = 0; i < vars.size(); ++i) {
              batch.push_back(
                  {ProcId(i % n), pram::AccessOp::kRead, vars[i], 0});
            }
            return &batch;
          },
          tally(shard));
    }
    shard.reliability = memory->reliability();
    memory->set_observer(nullptr);
    shard.obs.journal.flush();
  });

  // Deterministic merge in (trial, family, step) order — shard order is
  // fixed by construction, so the fold is identical at any thread count.
  TraceRunResult merged;
  merged.storage_factor = instance_.memory->storage_redundancy();
  // Same ring bound for the merged journal as for each shard's.
  (void)observe(merged.obs, options.obs);
  for (const auto& shard : shards) {
    merged.merge(shard);
  }
  merged.obs.journal.flush();
  return merged;
}

FaultSweepResult SimulationPipeline::run_fault_sweep(
    const FaultSweepOptions& options) const {
  FaultSweepResult result;
  result.total.storage_factor = instance_.memory->storage_redundancy();
  for (const double rate : options.rates) {
    const auto level_spec = faults::at_rate(options.proto, rate);
    FaultLevelResult level;
    level.rate = rate;
    level.run = run_with_faults(level_spec, options.stress);
    if (level.run.reliability.wrong_reads > 0) {
      level.run.breaking_fault_rate = rate;
    }
    if (result.first_uncorrectable_rate < 0.0 &&
        level.run.reliability.uncorrectable > 0) {
      result.first_uncorrectable_rate = rate;
    }
    if (options.recovery && !level_spec.inert()) {
      level.recovery_steps =
          run_recovery(level_spec, *options.recovery).recovery_steps;
      if (level.recovery_steps > result.worst_recovery_steps) {
        result.worst_recovery_steps = level.recovery_steps;
      }
    }
    result.total.merge(level.run);
    result.levels.push_back(std::move(level));
  }
  return result;
}

const char* to_string(KillPoint point) {
  switch (point) {
    case KillPoint::kCleanShutdown: return "clean_shutdown";
    case KillPoint::kMidWalAppend: return "mid_wal_append";
    case KillPoint::kAfterWalFlush: return "after_wal_flush";
    case KillPoint::kMidCheckpoint: return "mid_checkpoint";
    case KillPoint::kAfterCheckpointPreTruncate:
      return "after_checkpoint_pre_truncate";
  }
  return "unknown";
}

std::vector<KillPoint> all_kill_points() {
  return {KillPoint::kCleanShutdown, KillPoint::kMidWalAppend,
          KillPoint::kAfterWalFlush, KillPoint::kMidCheckpoint,
          KillPoint::kAfterCheckpointPreTruncate};
}

CrashRecoveryResult SimulationPipeline::run_crash_recovery(
    const CrashRecoveryOptions& options,
    const faults::FaultSpec* fault_spec) const {
  namespace fs = std::filesystem;
  CrashRecoveryResult result;
  const DurabilityOptions& dur = options.durability;
  PRAMSIM_ASSERT_MSG(!dur.directory.empty(),
                     "CrashRecoveryOptions needs a durability directory");
  fs::create_directories(dur.directory);
  const std::string wal_path =
      (fs::path(dur.directory) / "wal.log").string();
  // A crash run owns its directory: stale files from a previous run must
  // not leak into this run's recovery.
  fs::remove(wal_path);
  for (const auto& entry : fs::directory_iterator(dur.directory)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      fs::remove(entry.path());
    }
  }

  const std::size_t steps = std::max<std::size_t>(options.steps, 1);
  // The kill step derives from the seed (decorrelated from the traffic
  // stream), so a matrix sweep over seeds covers kill positions all over
  // the run without hand-picking them.
  util::Rng kill_rng(options.seed ^ 0xD1B54A32D192ED03ULL);
  const std::uint64_t kill =
      options.kill_step != 0
          ? std::min<std::uint64_t>(options.kill_step, steps)
          : 1 + kill_rng.below(steps);
  result.kill_step = kill;

  util::Rng trace_rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, instance_.m,
                                      steps, trace_rng, options.trace);

  obs::Sink* sink = observe(result.obs, options.obs);
  util::Executor executor;

  durability::Wal::RecordSpan torn_span;
  // The crashed run, the recovered machine, and the reference run must
  // be three instances of the SAME configuration (scheme seed and fault
  // seed included), or restore/compare would be meaningless.
  {
    const auto memory = assemble(spec_, fault_spec);
    memory->set_observer(sink);
    // Fault-onset acknowledgements: the durable run logs each realized
    // onset once the step clock crosses it, so the post-crash log shows
    // which failures the run had already acknowledged.
    std::span<const faults::Onset> onsets;
    if (fault_spec != nullptr) {
      onsets = static_cast<faults::FaultableMemory*>(memory.get())
                   ->model()
                   .onsets();
    }
    std::size_t onset_cursor = 0;

    durability::Wal wal({wal_path, dur.wal_flush_interval}, sink);
    durability::Checkpointer checkpointer({dur.directory}, sink);

    // The durable run serves the trace's first `kill` steps. The kill
    // step's record is appended, then the kill point below takes over.
    serve_steps(*memory, {.executor = &executor, .sink = sink, .overlap = true},
                kill, from_trace(trace),
                [&](std::size_t step, const pram::AccessPlan& plan,
                    const pram::MemStepCost&, const pram::ScrubResult*) {
                  while (onset_cursor < onsets.size() &&
                         onsets[onset_cursor].step <= step) {
                    wal.append_onset(
                        step, onsets[onset_cursor].module.value());
                    ++onset_cursor;
                  }
                  wal.append_step(step, plan.writes);
                  if (step == kill) {
                    return;
                  }
                  wal.maybe_flush(step);
                  if (dur.checkpoint_interval != 0 &&
                      step % dur.checkpoint_interval == 0) {
                    wal.flush();
                    checkpointer.write(*memory, step);
                    wal.truncate_through(step);
                  }
                });

    switch (options.kill_point) {
      case KillPoint::kCleanShutdown:
        wal.flush();
        checkpointer.write(*memory, kill);
        wal.truncate_through(kill);
        break;
      case KillPoint::kMidWalAppend:
        // Flush everything, then (post-scope) cut the file inside the
        // final record's byte span: the classic torn final write.
        wal.flush();
        torn_span = wal.last_record();
        break;
      case KillPoint::kAfterWalFlush:
        wal.flush();
        break;
      case KillPoint::kMidCheckpoint: {
        // The WAL is durable through the kill step; the checkpoint that
        // was being written when the process died is a torn prefix on
        // disk. Recovery must reject it and fall back.
        wal.flush();
        const std::vector<std::uint8_t> image =
            durability::Checkpointer::file_image(*memory, kill);
        const std::size_t cut = 1 + kill_rng.below(image.size() - 1);
        const std::string path =
            durability::Checkpointer::path_for(dur.directory, kill);
        std::FILE* file = std::fopen(path.c_str(), "wb");
        PRAMSIM_ASSERT(file != nullptr);
        PRAMSIM_ASSERT(std::fwrite(image.data(), 1, cut, file) == cut);
        std::fclose(file);
        break;
      }
      case KillPoint::kAfterCheckpointPreTruncate:
        // Checkpoint durable, truncate never ran: the log still holds
        // records the checkpoint covers; replay must filter them.
        wal.flush();
        checkpointer.write(*memory, kill);
        break;
    }
    result.checkpoint_bytes = checkpointer.last_bytes();
    memory->set_observer(nullptr);
  }  // the crash: Wal closes here WITHOUT flushing any buffered tail

  if (options.kill_point == KillPoint::kMidWalAppend &&
      torn_span.length > 1) {
    fs::resize_file(wal_path, torn_span.offset + 1 +
                                  kill_rng.below(torn_span.length - 1));
  }
  result.wal_bytes = fs::exists(wal_path) ? fs::file_size(wal_path) : 0;

  // Restart: a fresh machine recovers from what survived on disk.
  const auto recovered = assemble(spec_, fault_spec);
  recovered->set_observer(sink);
  util::Stopwatch timer;
  result.recovery = durability::recover(*recovered, wal_path,
                                        dur.directory, dur.scrub_budget,
                                        sink);
  result.recovery_seconds = timer.elapsed_seconds();
  result.durable_step = result.recovery.recovered_step;
  recovered->set_observer(nullptr);

  // Reference: an uninterrupted run of the same trace, stopped at the
  // durable horizon. Its committed-write trace doubles as the oracle for
  // the zero-lost-durable-writes check.
  const auto reference = assemble(spec_, fault_spec);
  faults::TraceChecker committed;
  serve_steps(*reference, {.executor = &executor, .overlap = true},
              result.durable_step, from_trace(trace),
              [&](std::size_t, const pram::AccessPlan& plan,
                  const pram::MemStepCost&, const pram::ScrubResult*) {
                for (const pram::VarWrite& write : plan.writes) {
                  committed.record_write(write.var, write.value);
                }
              });

  result.bit_exact = true;
  const std::uint64_t m = reference->size();
  for (std::uint64_t v = 0; v < m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    if (reference->peek(var) != recovered->peek(var)) {
      result.bit_exact = false;
    }
    ++result.vars_checked;
  }
  // Under fault injection peek is fault-aware (a dead module's loss is
  // visible in BOTH instances), so the ideal-value comparison is only
  // meaningful fault-free; the bit_exact reference comparison above is
  // the authoritative check either way.
  if (fault_spec == nullptr) {
    committed.ideal().for_each(
        [&](std::uint64_t var, std::span<const pram::Word> value) {
          if (recovered->peek(VarId(static_cast<std::uint32_t>(var))) !=
              value[0]) {
            ++result.lost_committed_writes;
          }
        });
  }
  result.obs.journal.flush();
  return result;
}

RecoveryResult SimulationPipeline::run_recovery(
    const faults::FaultSpec& fault_spec,
    const RecoveryOptions& options) const {
  RecoveryResult result;
  // One fresh machine, wrapped for injection + oracle checking. Plan
  // building may overlap serving and the value phase may fan across the
  // executor: the trajectory is bit-identical at any worker-thread count.
  const auto memory =
      std::make_unique<faults::FaultableMemory>(make_memory(spec_), fault_spec);
  result.onset_step =
      static_cast<std::int64_t>(memory->model().first_onset());
  obs::Sink* sink = observe(result.obs, options.obs);
  memory->set_observer(sink);

  util::Rng rng(options.seed);
  const auto trace = pram::make_trace(options.family, spec_.n, instance_.m,
                                      options.steps, rng, options.trace);
  util::Executor executor;
  pram::ReliabilityStats prev;
  result.trajectory.reserve(trace.size());
  // A step's point is sampled after the scrub pass that followed it, so
  // it reflects the reads the step served and the repairs after them —
  // the next step is the first to benefit.
  serve_steps(
      *memory,
      {.executor = &executor,
       .sink = sink,
       .scrub_interval = options.scrub_interval,
       .scrub_budget = options.scrub_budget,
       .overlap = true},
      trace.size(), from_trace(trace),
      [&](std::size_t step, const pram::AccessPlan&, const pram::MemStepCost&,
          const pram::ScrubResult* scrub) {
        if (scrub != nullptr) {
          result.scrub.merge(*scrub);
        }
        const pram::ReliabilityStats now = memory->reliability();
        RecoveryPoint point;
        point.step = step;
        point.reads = now.reads_served - prev.reads_served;
        point.masked = now.faults_masked - prev.faults_masked;
        point.uncorrectable = now.uncorrectable - prev.uncorrectable;
        point.wrong = now.wrong_reads - prev.wrong_reads;
        point.repaired = now.units_repaired - prev.units_repaired;
        point.relocated = now.units_relocated - prev.units_relocated;
        point.degraded_rate =
            point.reads > 0 ? static_cast<double>(point.masked +
                                                  point.uncorrectable) /
                                  static_cast<double>(point.reads)
                            : 0.0;
        prev = now;
        result.trajectory.push_back(point);
      });
  result.reliability = memory->reliability();
  memory->set_observer(nullptr);
  result.obs.journal.flush();

  // Read the recovery time off the trajectory: the first over-threshold
  // step is the injury, and recovery is the first step from which the
  // degraded rate STAYS at or below the threshold.
  std::int64_t last_bad = -1;
  for (const auto& point : result.trajectory) {
    result.peak_degraded_rate =
        std::max(result.peak_degraded_rate, point.degraded_rate);
    if (point.degraded_rate > options.recovery_threshold) {
      if (result.first_degraded_step < 0) {
        result.first_degraded_step = static_cast<std::int64_t>(point.step);
      }
      last_bad = static_cast<std::int64_t>(point.step);
    }
  }
  if (!result.trajectory.empty()) {
    result.final_degraded_rate = result.trajectory.back().degraded_rate;
  }
  if (result.first_degraded_step >= 0) {
    const auto last_step =
        static_cast<std::int64_t>(result.trajectory.back().step);
    if (last_bad < last_step) {
      result.recovered_step = last_bad + 1;
      result.recovery_steps =
          result.recovered_step - result.first_degraded_step;
    }
  }
  return result;
}

}  // namespace pramsim::core
