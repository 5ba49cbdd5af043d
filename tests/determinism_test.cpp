// Determinism regression gate for the sharded, double-buffered pipeline:
// run_stress / run_with_faults results must be bit-identical for the same
// spec at 1 worker thread and at hardware_concurrency workers — both at
// the trial level and with the within-trial (trial, family) sharding —
// and whether or not plan building overlaps serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/recovery.hpp"
#include "faults/fault_model.hpp"
#include "obs/export.hpp"
#include "pram/snapshot.hpp"
#include "util/parallel.hpp"

namespace pramsim {
namespace {

/// Restore the automatic worker policy even when an assertion fails.
struct WorkerOverrideGuard {
  ~WorkerOverrideGuard() { util::set_parallel_workers_override(0); }
};

void expect_stats_identical(const util::RunningStats& a,
                            const util::RunningStats& b,
                            const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  EXPECT_DOUBLE_EQ(a.sum(), b.sum()) << what;
  EXPECT_DOUBLE_EQ(a.min(), b.min()) << what;
  EXPECT_DOUBLE_EQ(a.max(), b.max()) << what;
  EXPECT_DOUBLE_EQ(a.variance(), b.variance()) << what;
}

void expect_identical(const core::TraceRunResult& a,
                      const core::TraceRunResult& b, const char* what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  expect_stats_identical(a.time, b.time, what);
  expect_stats_identical(a.work, b.work, what);
  expect_stats_identical(a.live_after_stage1, b.live_after_stage1, what);
  expect_stats_identical(a.max_queue, b.max_queue, what);
  EXPECT_DOUBLE_EQ(a.storage_factor, b.storage_factor) << what;
  EXPECT_EQ(a.reliability.reads_served, b.reliability.reads_served) << what;
  EXPECT_EQ(a.reliability.wrong_reads, b.reliability.wrong_reads) << what;
  EXPECT_EQ(a.reliability.faults_masked, b.reliability.faults_masked) << what;
  EXPECT_EQ(a.reliability.erasures_skipped, b.reliability.erasures_skipped)
      << what;
  EXPECT_EQ(a.reliability.uncorrectable, b.reliability.uncorrectable) << what;
  EXPECT_EQ(a.reliability.writes_dropped, b.reliability.writes_dropped)
      << what;
  EXPECT_EQ(a.reliability.corrupt_stores, b.reliability.corrupt_stores)
      << what;
}

std::size_t many_workers() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 4);
}

TEST(Determinism, StressBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                          core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    // trials = 1 exercises pure within-trial (family) sharding; trials =
    // 3 exercises both levels at once.
    for (const std::size_t trials : {std::size_t{1}, std::size_t{3}}) {
      const core::StressOptions options{
          .steps_per_family = 2, .seed = 9, .trials = trials};
      util::set_parallel_workers_override(1);
      const auto serial = pipeline.run_stress(options);
      util::set_parallel_workers_override(many_workers());
      const auto parallel = pipeline.run_stress(options);
      util::set_parallel_workers_override(0);
      EXPECT_GT(serial.steps, 0u);
      expect_identical(serial, parallel, core::to_string(kind));
    }
  }
}

TEST(Determinism, FaultRunBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    const faults::FaultSpec spec{
        .seed = 41, .module_kill_rate = 0.2, .corruption_rate = 0.1};
    const core::StressOptions options{
        .steps_per_family = 2, .seed = 13, .trials = 3};
    util::set_parallel_workers_override(1);
    const auto serial = pipeline.run_with_faults(spec, options);
    util::set_parallel_workers_override(many_workers());
    const auto parallel = pipeline.run_with_faults(spec, options);
    util::set_parallel_workers_override(0);
    EXPECT_GT(serial.reliability.reads_served, 0u);
    expect_identical(serial, parallel, core::to_string(kind));
  }
}

// At worker override 1 the four shards (three families plus the
// adversarial stage) run one at a time and each family shard builds its
// plans on a generator thread; at 4 the shards fan out and build inline.
TEST(Determinism, DoubleBufferingDoesNotChangeResults) {
  WorkerOverrideGuard guard;
  for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                          core::SchemeKind::kHashed}) {
    core::SimulationPipeline pipeline({.kind = kind, .n = 16, .seed = 3});
    // steps_per_family >= 4 so the generator thread actually engages.
    const core::StressOptions options{.steps_per_family = 6, .seed = 21};
    util::set_parallel_workers_override(1);
    const auto buffered = pipeline.run_stress(options);
    util::set_parallel_workers_override(4);
    const auto serial = pipeline.run_stress(options);
    util::set_parallel_workers_override(0);
    expect_identical(buffered, serial, core::to_string(kind));
  }
}

// ----- Engine API v2: group-parallel serve inside the pipeline ---------

// The kGroupParallel backend must not change ANY pipeline result — not
// versus the serial backend, and not across executor worker counts. The
// worker override steers both the shard-level parallel_for AND the
// intra-step fan-out of request ranges, so this pins determinism at both
// levels at once.
TEST(Determinism, GroupParallelBackendBitIdenticalAcrossWorkersAndBackends) {
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    const core::StressOptions options{
        .steps_per_family = 4, .seed = 9, .trials = 2};

    spec.backend = pram::ServeBackend::kSerial;
    core::SimulationPipeline serial_pipeline(spec);
    const auto serial = serial_pipeline.run_stress(options);

    spec.backend = pram::ServeBackend::kGroupParallel;
    core::SimulationPipeline gp_pipeline(spec);
    ASSERT_EQ(gp_pipeline.scheme().backend,
              pram::ServeBackend::kGroupParallel)
        << core::to_string(kind);
    util::set_parallel_workers_override(1);
    const auto gp_serial_workers = gp_pipeline.run_stress(options);
    util::set_parallel_workers_override(many_workers());
    const auto gp_many_workers = gp_pipeline.run_stress(options);
    util::set_parallel_workers_override(0);

    expect_identical(serial, gp_serial_workers, core::to_string(kind));
    expect_identical(serial, gp_many_workers, core::to_string(kind));
  }
}

// Scrub interleaved with the double-buffered pipeline under the context
// API: dynamic-onset faults land mid-run, the driver scrubs every other
// step, and the whole thing must stay bit-identical at any worker count,
// with the group-parallel backend serving inside the shards.
TEST(Determinism, ScrubbedGroupParallelStressBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    spec.backend = pram::ServeBackend::kGroupParallel;
    core::SimulationPipeline pipeline(spec);
    const faults::FaultSpec fault_spec{.seed = 41,
                                       .module_kill_rate = 0.25,
                                       .corruption_rate = 0.1,
                                       .onset_min = 2,
                                       .onset_max = 5};
    core::StressOptions options{.steps_per_family = 6, .seed = 13,
                                .trials = 2};
    options.scrub_interval = 2;
    options.scrub_budget = 64;

    util::set_parallel_workers_override(1);
    const auto serial = pipeline.run_with_faults(fault_spec, options);
    util::set_parallel_workers_override(many_workers());
    const auto parallel = pipeline.run_with_faults(fault_spec, options);
    util::set_parallel_workers_override(0);
    EXPECT_GT(serial.reliability.reads_served, 0u);
    expect_identical(serial, parallel, core::to_string(kind));
  }
}

// ----- observability: the metrics + journal determinism contract -------

// The deterministic obs snapshot (include_timings = false: counters,
// gauges, histograms, phase counts, journal contents) must be BYTE
// identical across executor worker counts {1, 2, 4} and across reruns of
// the same seed — the per-shard sinks fold in shard order, and the
// journal commits each step in canonical order regardless of how the
// value phase's request ranges interleaved.
TEST(Determinism, ObsSnapshotBitIdenticalAcrossWorkersAndReruns) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  WorkerOverrideGuard guard;
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed}) {
    core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    spec.backend = pram::ServeBackend::kGroupParallel;
    core::SimulationPipeline pipeline(spec);
    const faults::FaultSpec fault_spec{.seed = 41,
                                       .module_kill_rate = 0.25,
                                       .corruption_rate = 0.1,
                                       .onset_min = 2,
                                       .onset_max = 5};
    core::StressOptions options{.steps_per_family = 6, .seed = 13,
                                .trials = 2};
    options.scrub_interval = 2;
    options.scrub_budget = 64;
    options.obs = obs::SinkOptions{};

    obs::SnapshotOptions snapshot;
    snapshot.include_timings = false;

    std::string reference;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      util::set_parallel_workers_override(workers);
      auto run = pipeline.run_with_faults(fault_spec, options);
      const std::string json = obs::to_json(run.obs, snapshot);
      if (reference.empty()) {
        reference = json;
        EXPECT_NE(reference.find("\"events\": [{"), std::string::npos)
            << core::to_string(kind) << ": journal should not be empty";
      } else {
        EXPECT_EQ(json, reference)
            << core::to_string(kind) << " at " << workers << " workers";
      }
    }
    util::set_parallel_workers_override(0);

    // Rerun at the automatic worker policy: still byte-identical.
    auto rerun = pipeline.run_with_faults(fault_spec, options);
    EXPECT_EQ(obs::to_json(rerun.obs, snapshot), reference)
        << core::to_string(kind) << " rerun";
  }
}

// ----- durability: crash recovery is deterministic and idempotent ------

void expect_crash_identical(const core::CrashRecoveryResult& a,
                            const core::CrashRecoveryResult& b,
                            const std::string& what) {
  EXPECT_EQ(a.kill_step, b.kill_step) << what;
  EXPECT_EQ(a.durable_step, b.durable_step) << what;
  EXPECT_EQ(a.bit_exact, b.bit_exact) << what;
  EXPECT_EQ(a.vars_checked, b.vars_checked) << what;
  EXPECT_EQ(a.lost_committed_writes, b.lost_committed_writes) << what;
  EXPECT_EQ(a.recovery.checkpoint_loaded, b.recovery.checkpoint_loaded)
      << what;
  EXPECT_EQ(a.recovery.checkpoint_step, b.recovery.checkpoint_step) << what;
  EXPECT_EQ(a.recovery.replayed_records, b.recovery.replayed_records) << what;
  EXPECT_EQ(a.recovery.replayed_writes, b.recovery.replayed_writes) << what;
  EXPECT_EQ(a.recovery.skipped_records, b.recovery.skipped_records) << what;
  EXPECT_EQ(a.recovery.torn_wal_tail, b.recovery.torn_wal_tail) << what;
  EXPECT_EQ(a.recovery.recovered_step, b.recovery.recovered_step) << what;
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes) << what;
  EXPECT_EQ(a.wal_bytes, b.wal_bytes) << what;
}

// The whole crash-and-recover trajectory — kill step, durable horizon,
// checkpoint/WAL byte counts, replay record counts, bit-exactness — must
// not depend on the executor worker count, including with the
// group-parallel serve backend fanning out inside each step.
TEST(Determinism, CrashRecoveryBitIdenticalAcrossWorkerCounts) {
  WorkerOverrideGuard guard;
  std::vector<core::SchemeSpec> specs = {
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3},
      {.kind = core::SchemeKind::kIda, .n = 16, .seed = 3},
  };
  core::SchemeSpec gp{.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3};
  gp.backend = pram::ServeBackend::kGroupParallel;
  specs.push_back(gp);

  std::size_t index = 0;
  for (const auto& spec : specs) {
    core::SimulationPipeline pipeline(spec);
    if (spec.backend == pram::ServeBackend::kGroupParallel) {
      ASSERT_EQ(pipeline.scheme().backend, pram::ServeBackend::kGroupParallel);
    }
    core::CrashRecoveryOptions options;
    options.steps = 20;
    options.seed = 17;
    options.kill_point = core::KillPoint::kMidWalAppend;
    options.durability.directory =
        std::string(::testing::TempDir()) + "/determinism_crash_" +
        std::to_string(index);

    std::vector<core::CrashRecoveryResult> results;
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      util::set_parallel_workers_override(workers);
      results.push_back(pipeline.run_crash_recovery(options));
    }
    util::set_parallel_workers_override(0);

    EXPECT_TRUE(results[0].bit_exact) << "spec " << index;
    const std::string what = "spec " + std::to_string(index);
    expect_crash_identical(results[0], results[1], what + " @2 workers");
    expect_crash_identical(results[0], results[2], what + " @4 workers");
    ++index;
  }
}

// Recovery must be idempotent: recovering the SAME on-disk state twice
// into one machine, or once into another, yields byte-identical
// snapshots. The WAL replays absolute committed values, so a recovery
// that itself crashes and reruns cannot drift.
TEST(Determinism, RecoveryIsIdempotentOverTheSameDiskState) {
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  core::SimulationPipeline pipeline(spec);
  core::CrashRecoveryOptions options;
  options.steps = 20;
  options.seed = 23;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory =
      std::string(::testing::TempDir()) + "/determinism_idempotent";
  const auto result = pipeline.run_crash_recovery(options);
  ASSERT_TRUE(result.bit_exact);

  // run_crash_recovery leaves the WAL and checkpoints on disk; recover
  // from them by hand, repeatedly.
  const std::string wal_path = options.durability.directory + "/wal.log";
  const auto snapshot_of = [](pram::MemorySystem& memory) {
    pram::BufferSink sink;
    memory.snapshot(sink);
    return sink.take();
  };

  auto once = core::make_memory(spec);
  (void)durability::recover(*once, wal_path, options.durability.directory);
  const auto bytes_once = snapshot_of(*once);

  // Second recovery of the SAME machine: nothing changes.
  const auto again = durability::recover(*once, wal_path,
                                         options.durability.directory);
  EXPECT_EQ(again.recovered_step, result.recovery.recovered_step);
  EXPECT_EQ(snapshot_of(*once), bytes_once);

  // A fresh machine recovered once lands on the same bytes.
  auto fresh = core::make_memory(spec);
  (void)durability::recover(*fresh, wal_path, options.durability.directory);
  EXPECT_EQ(snapshot_of(*fresh), bytes_once);
}

// ----- driver fingerprint: every SimulationPipeline run, pinned --------

// Golden fingerprints pin every SimulationPipeline run kind bit for bit:
// stress, fault-injected stress, the recovery probe and the crash
// harness. Each case folds every field of its result and the
// deterministic obs snapshot. Every case runs at worker override 1
// (serial shard level: plan building overlaps serving) and at 4 (shards
// fan out and build their plans inline); both must give the recorded
// constant. The constants were recorded when each run kind still wrote
// its own step loop.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

std::uint64_t fold(std::uint64_t h, double v) {
  return fold(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t fold_bytes(std::uint64_t h, std::string_view bytes) {
  h = fold(h, std::uint64_t{bytes.size()});
  for (const char byte : bytes) {
    h = fold(h, std::uint64_t{static_cast<unsigned char>(byte)});
  }
  return h;
}

std::uint64_t fold_stats(std::uint64_t h, const util::RunningStats& s) {
  h = fold(h, s.count());
  for (const double v : {s.sum(), s.min(), s.max(), s.variance()}) {
    h = fold(h, v);
  }
  return h;
}

std::uint64_t fold_reliability(std::uint64_t h,
                               const pram::ReliabilityStats& r) {
  for (const std::uint64_t v :
       {r.reads_served, r.faults_masked, r.units_faulty, r.erasures_skipped,
        r.shares_short, r.uncorrectable, r.wrong_reads, r.writes_dropped,
        r.corrupt_stores, r.units_repaired, r.units_relocated}) {
    h = fold(h, v);
  }
  return h;
}

std::uint64_t fold_scrub(std::uint64_t h, const pram::ScrubResult& s) {
  for (const std::uint64_t v : {s.scanned, s.repaired, s.relocated, s.work}) {
    h = fold(h, v);
  }
  return h;
}

std::uint64_t fold_obs(std::uint64_t h, obs::Sink& sink) {
  obs::SnapshotOptions snapshot;
  snapshot.include_timings = false;
  return fold_bytes(h, obs::to_json(sink, snapshot));
}

std::uint64_t fold_run(std::uint64_t h, core::TraceRunResult& run) {
  for (const util::RunningStats* s :
       {&run.time, &run.work, &run.live_after_stage1, &run.max_queue}) {
    h = fold_stats(h, *s);
  }
  h = fold(h, run.steps);
  h = fold(h, run.storage_factor);
  h = fold_reliability(h, run.reliability);
  h = fold(h, run.breaking_fault_rate);
  h = fold(h, run.scrub_passes);
  h = fold_scrub(h, run.scrub);
  return fold_obs(h, run.obs);
}

std::uint64_t fold_directory(std::uint64_t h, const std::string& directory) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    h = fold_bytes(h, path.filename().string());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h = fold_bytes(h, bytes);
  }
  return h;
}

enum class DriverRun : std::uint8_t { kStress, kFaults, kRecovery, kCrash };

struct DriverFingerprintCase {
  const char* name;
  DriverRun run;
  core::SchemeSpec spec;
  bool faulted;  ///< kCrash only: dynamic kills + corruption
  std::uint64_t want;
};

std::uint64_t fold_driver_run(const DriverFingerprintCase& fc) {
  core::SimulationPipeline pipeline(fc.spec);
  std::uint64_t h = 0;
  switch (fc.run) {
    case DriverRun::kStress:
      for (const std::size_t trials : {std::size_t{1}, std::size_t{3}}) {
        core::StressOptions options{
            .steps_per_family = 6, .seed = 9, .trials = trials};
        options.obs = obs::SinkOptions{.sample_interval = 2};
        auto run = pipeline.run_stress(options);
        h = fold_run(h, run);
      }
      break;
    case DriverRun::kFaults: {
      const faults::FaultSpec fault_spec{.seed = 41,
                                         .module_kill_rate = 0.25,
                                         .corruption_rate = 0.1,
                                         .onset_min = 2,
                                         .onset_max = 5};
      core::StressOptions options{
          .steps_per_family = 6, .seed = 13, .trials = 2};
      options.scrub_interval = 2;
      options.scrub_budget = 64;
      options.obs = obs::SinkOptions{.sample_interval = 2};
      auto run = pipeline.run_with_faults(fault_spec, options);
      h = fold_run(h, run);
      break;
    }
    case DriverRun::kRecovery: {
      const faults::FaultSpec fault_spec{.seed = 37,
                                         .module_kill_rate = 0.15,
                                         .corruption_rate = 0.05,
                                         .onset_min = 8,
                                         .onset_max = 12};
      core::RecoveryOptions options{
          .steps = 48, .seed = 11, .scrub_interval = 4, .scrub_budget = 64};
      options.obs = obs::SinkOptions{.sample_interval = 2};
      auto result = pipeline.run_recovery(fault_spec, options);
      h = fold(h, std::uint64_t{result.trajectory.size()});
      for (const core::RecoveryPoint& p : result.trajectory) {
        for (const std::uint64_t v : {p.step, p.reads, p.masked,
                                      p.uncorrectable, p.wrong, p.repaired,
                                      p.relocated}) {
          h = fold(h, v);
        }
        h = fold(h, p.degraded_rate);
      }
      for (const std::int64_t v :
           {result.onset_step, result.first_degraded_step,
            result.recovered_step, result.recovery_steps}) {
        h = fold(h, static_cast<std::uint64_t>(v));
      }
      h = fold(h, result.peak_degraded_rate);
      h = fold(h, result.final_degraded_rate);
      h = fold_reliability(h, result.reliability);
      h = fold_scrub(h, result.scrub);
      h = fold_obs(h, result.obs);
      break;
    }
    case DriverRun::kCrash: {
      const faults::FaultSpec fault_spec{.seed = 43,
                                         .module_kill_rate = 0.2,
                                         .corruption_rate = 0.05,
                                         .onset_min = 3,
                                         .onset_max = 9};
      for (const core::KillPoint point : core::all_kill_points()) {
        core::CrashRecoveryOptions options;
        options.steps = 16;
        options.seed = 5;
        options.kill_step = 14;
        options.kill_point = point;
        options.durability.directory =
            std::string(::testing::TempDir()) + "/driver_fingerprint_" +
            fc.name + "_" + core::to_string(point);
        options.durability.checkpoint_interval = 4;
        options.obs = obs::SinkOptions{};
        auto result = pipeline.run_crash_recovery(
            options, fc.faulted ? &fault_spec : nullptr);
        EXPECT_TRUE(result.bit_exact) << core::to_string(point);
        const durability::RecoveryOutcome& r = result.recovery;
        for (const std::uint64_t v :
             {result.kill_step, result.durable_step,
              std::uint64_t{r.checkpoint_loaded}, r.checkpoint_step,
              r.replayed_records, r.replayed_writes, r.skipped_records,
              std::uint64_t{r.torn_wal_tail}, r.wal_bytes_replayed,
              r.recovered_step, std::uint64_t{result.bit_exact},
              result.vars_checked, result.lost_committed_writes,
              result.checkpoint_bytes, result.wal_bytes}) {
          h = fold(h, v);
        }
        h = fold_scrub(h, r.scrub);
        h = fold_directory(h, options.durability.directory);
        // Phase counts are left out: the crash run gained its plan_build
        // and serve timers when it joined the shared step loop.
        result.obs.phases = obs::PhaseSet{};
        h = fold_obs(h, result.obs);
      }
      break;
    }
  }
  return h;
}

class DriverFingerprint
    : public ::testing::TestWithParam<DriverFingerprintCase> {};

TEST_P(DriverFingerprint, RunMatchesTheGoldenRecordAtAnyWorkerCount) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  WorkerOverrideGuard guard;
  const DriverFingerprintCase& fc = GetParam();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    util::set_parallel_workers_override(workers);
    const std::uint64_t h = fold_driver_run(fc);
    EXPECT_EQ(h, fc.want) << std::hex << h << " at " << std::dec << workers
                          << " workers";
  }
}

core::SchemeSpec group_parallel(core::SchemeKind kind) {
  core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
  spec.backend = pram::ServeBackend::kGroupParallel;
  return spec;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, DriverFingerprint,
    ::testing::Values(
        DriverFingerprintCase{"stress_dmmpc", DriverRun::kStress,
                              {.kind = core::SchemeKind::kDmmpc, .n = 16,
                               .seed = 3},
                              false, 0xe848b7dffbe4be18ULL},
        DriverFingerprintCase{"stress_ida", DriverRun::kStress,
                              {.kind = core::SchemeKind::kIda, .n = 16,
                               .seed = 3},
                              false, 0xc2bdbfd698f7458eULL},
        DriverFingerprintCase{"stress_hashed", DriverRun::kStress,
                              {.kind = core::SchemeKind::kHashed, .n = 16,
                               .seed = 3},
                              false, 0xe5bf8b032a7b2d14ULL},
        DriverFingerprintCase{"stress_hp_mot", DriverRun::kStress,
                              {.kind = core::SchemeKind::kHpMot, .n = 16,
                               .seed = 3},
                              false, 0xf9d03982b3d27c7aULL},
        DriverFingerprintCase{"faults_dmmpc_gp", DriverRun::kFaults,
                              group_parallel(core::SchemeKind::kDmmpc),
                              false, 0xde644e3e3b444fc5ULL},
        DriverFingerprintCase{"faults_hashed_gp", DriverRun::kFaults,
                              group_parallel(core::SchemeKind::kHashed),
                              false, 0xf7ad2bc710aa3613ULL},
        DriverFingerprintCase{"faults_ida_gp", DriverRun::kFaults,
                              group_parallel(core::SchemeKind::kIda),
                              false, 0x55286642bba1423fULL},
        DriverFingerprintCase{"recovery_dmmpc", DriverRun::kRecovery,
                              {.kind = core::SchemeKind::kDmmpc, .n = 16,
                               .seed = 3},
                              false, 0x808a1a739c11f073ULL},
        DriverFingerprintCase{"recovery_ida", DriverRun::kRecovery,
                              {.kind = core::SchemeKind::kIda, .n = 16,
                               .seed = 3},
                              false, 0x308f45c102e223efULL},
        DriverFingerprintCase{"recovery_hashed", DriverRun::kRecovery,
                              {.kind = core::SchemeKind::kHashed, .n = 16,
                               .seed = 3},
                              false, 0x17690002709a2998ULL},
        DriverFingerprintCase{"crash_dmmpc", DriverRun::kCrash,
                              {.kind = core::SchemeKind::kDmmpc, .n = 16,
                               .seed = 3},
                              false, 0x0d1922ed94fcf83dULL},
        DriverFingerprintCase{"crash_dmmpc_faulted", DriverRun::kCrash,
                              {.kind = core::SchemeKind::kDmmpc, .n = 16,
                               .seed = 3},
                              true, 0xa4ce1f99fcc840dbULL},
        DriverFingerprintCase{"crash_ida", DriverRun::kCrash,
                              {.kind = core::SchemeKind::kIda, .n = 16,
                               .seed = 3},
                              false, 0xc3fe445f3c53f7f3ULL}),
    [](const ::testing::TestParamInfo<DriverFingerprintCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pramsim
