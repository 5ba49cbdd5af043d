// Experiment FT2: fail-during-run faults and scrub-driven recovery.
//
// Every SchemeKind serves the same uniform traffic while a seeded
// DYNAMIC fault model kills a fraction of its modules at one sharp onset
// step, and a budgeted background scrub pass (MemorySystem::scrub) runs
// on a fixed cadence. The per-step trajectory separates three eras:
//
//   before onset   - healthy service, degraded rate 0;
//   onset -> scrub - reads masked (majority votes around erasures, IDA
//                    reconstructs from survivors) or flagged lost
//                    (single-copy schemes);
//   after scrub    - replicated schemes RE-HOME lost copies/shares onto
//                    healthy modules and re-replicate, so the masked
//                    rate falls back toward zero — the live-system story
//                    the static sweep (bench_faults) cannot show. The
//                    single-copy baselines have nothing to rebuild from
//                    and stay degraded forever.
//
// The same probe with scrubbing disabled is the control: degradation is
// permanent without repair, so the delta column is pure scrub effect.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "obs/journal.hpp"
#include "util/table.hpp"

using namespace pramsim;

namespace {

std::string step_str(std::int64_t step) {
  return step < 0 ? "never" : std::to_string(step);
}

/// Per-kind event counts from a flushed journal's surviving window.
std::array<std::int64_t, obs::kEventKindCount> count_events(
    const obs::Journal& journal) {
  std::array<std::int64_t, obs::kEventKindCount> counts{};
  for (const auto& event : journal.events()) {
    ++counts[static_cast<std::size_t>(event.kind)];
  }
  return counts;
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "recovery", "dynamic faults + background scrubbing (recovery time)",
      "after a mid-run fault onset, constant-redundancy schemes recover "
      "their masked-fault rate via budgeted scrubbing (re-replication / "
      "re-dispersal onto healthy modules); single-copy schemes cannot");

  const std::uint32_t n = 16;
  const std::uint64_t kOnset = 16;

  faults::FaultSpec fault_spec;
  fault_spec.seed = 2027;
  fault_spec.module_kill_rate = 0.15;
  fault_spec.onset_min = kOnset;
  fault_spec.onset_max = kOnset;

  core::RecoveryOptions probe;
  probe.steps = 96;
  probe.seed = 44;
  probe.family = pram::TraceFamily::kUniform;
  probe.scrub_interval = 4;
  probe.scrub_budget = 128;
  probe.recovery_threshold = 0.02;

  // The scrubbed probe also carries the observability sink: the journal
  // table below reads the recovery story straight off the event stream.
  probe.obs = obs::SinkOptions{};

  core::RecoveryOptions control = probe;
  control.scrub_interval = 0;  // no scrubbing: degradation is permanent
  control.obs = std::nullopt;

  util::Table summary({"scheme", "r", "storage x", "onset", "degraded @",
                       "recovered @", "recovery steps", "peak rate",
                       "final (scrub)", "final (no scrub)", "repaired",
                       "relocated"});
  summary.set_title(
      "onset -> degradation -> scrub recovery at n = 16 (15% of modules "
      "die at step " + std::to_string(kOnset) +
      "; scrub every " + std::to_string(probe.scrub_interval) +
      " steps, budget " + std::to_string(probe.scrub_budget) + ")");

  std::vector<core::SchemeKind> trajectory_kinds = {
      core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
      core::SchemeKind::kHashed};
  std::vector<util::Table> trajectories;

  util::Table journal_table(
      {"scheme", "onsets", "deg votes", "deg decodes", "uncorrectable",
       "relocations", "scrub repairs", "wrong reads", "recorded",
       "dropped"});
  journal_table.set_title(
      "event journal of the scrubbed probe (per-kind counts over the "
      "surviving ring window; 'recorded' is lifetime appends)");

  for (const auto kind : core::all_scheme_kinds()) {
    core::SimulationPipeline pipeline({.kind = kind, .n = n, .seed = 33});
    const auto& scheme = pipeline.scheme();
    const auto scrubbed = pipeline.run_recovery(fault_spec, probe);
    const auto unscrubbed = pipeline.run_recovery(fault_spec, control);

    summary.add_row(
        {scheme.name, static_cast<std::int64_t>(scheme.r),
         scheme.storage_factor, static_cast<std::int64_t>(kOnset),
         step_str(scrubbed.first_degraded_step),
         step_str(scrubbed.recovered_step),
         step_str(scrubbed.recovery_steps), scrubbed.peak_degraded_rate,
         scrubbed.final_degraded_rate, unscrubbed.final_degraded_rate,
         static_cast<std::int64_t>(scrubbed.scrub.repaired),
         static_cast<std::int64_t>(scrubbed.scrub.relocated)});

    const auto counts = count_events(scrubbed.obs.journal);
    auto kind_count = [&](obs::EventKind k) {
      return counts[static_cast<std::size_t>(k)];
    };
    journal_table.add_row(
        {scheme.name, kind_count(obs::EventKind::kFaultOnset),
         kind_count(obs::EventKind::kDegradedVote),
         kind_count(obs::EventKind::kDegradedDecode),
         kind_count(obs::EventKind::kUncorrectable),
         kind_count(obs::EventKind::kRelocation),
         kind_count(obs::EventKind::kScrubRepair),
         kind_count(obs::EventKind::kWrongRead),
         static_cast<std::int64_t>(scrubbed.obs.journal.recorded()),
         static_cast<std::int64_t>(scrubbed.obs.journal.dropped())});

    for (std::size_t t = 0; t < trajectory_kinds.size(); ++t) {
      if (trajectory_kinds[t] != kind) {
        continue;
      }
      util::Table trajectory({"step", "reads", "masked", "uncorrectable",
                              "repaired", "relocated", "rate (scrub)",
                              "rate (no scrub)"});
      trajectory.set_title("trajectory: " + scheme.name +
                           " (onset at step " + std::to_string(kOnset) +
                           "; every 4th step shown)");
      // Stride on multiples of 4 so the onset step (and the scrub passes,
      // same cadence) land on shown rows.
      for (std::size_t i = 3; i < scrubbed.trajectory.size(); i += 4) {
        const auto& point = scrubbed.trajectory[i];
        trajectory.add_row(
            {static_cast<std::int64_t>(point.step),
             static_cast<std::int64_t>(point.reads),
             static_cast<std::int64_t>(point.masked),
             static_cast<std::int64_t>(point.uncorrectable),
             static_cast<std::int64_t>(point.repaired),
             static_cast<std::int64_t>(point.relocated),
             point.degraded_rate,
             unscrubbed.trajectory[i].degraded_rate});
      }
      trajectories.push_back(std::move(trajectory));
    }
  }

  reporter.table(summary, 4);
  reporter.table(journal_table, 0);
  for (const auto& trajectory : trajectories) {
    reporter.table(trajectory, 4);
  }

  bench::RunManifest manifest;
  manifest.scheme = "kind sweep (see table rows)";
  manifest.seed = 33;
  manifest.backend = "serial recovery probe";
  manifest.obs_enabled = true;  // scrubbed probe journals its events
  reporter.set_manifest(manifest);

  std::printf(
      "\nReading the trajectories: before step %llu every scheme is\n"
      "healthy. At onset the replicated schemes keep answering (masked\n"
      "faults) while single-copy schemes flag outages. Once scrubbing\n"
      "has walked the address space, majority copies and IDA shares have\n"
      "been re-homed onto healthy modules and re-replicated, so the\n"
      "degraded rate falls back under the threshold — 'final (scrub)' vs\n"
      "'final (no scrub)' is the measured value of the repair pass.\n",
      static_cast<unsigned long long>(kOnset));
  return 0;
}
