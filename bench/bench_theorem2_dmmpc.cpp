// Experiment T2: Theorem 2 — O(log n)-time simulation with constant
// redundancy on the DMMPC.
//
// For each n, the two-stage majority protocol (Lemma 2 map, M = n^2,
// r = 7) serves stress batches: distinct-variable trace families plus
// map-adversarial batches. Reported time is protocol rounds (each module
// serves one copy access per round — the DMMPC cost model). The series is
// fitted against the standard shape menu; the Upfal-Wigderson MPC
// baseline (M = n, r = Theta(log m)) runs the same traffic for contrast.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "memmap/expansion.hpp"
#include "pram/trace.hpp"
#include "util/table.hpp"

using namespace pramsim;

namespace {

struct SeriesPoint {
  std::uint32_t n;
  std::uint32_t r;
  double mean_rounds;
  double max_rounds;
  double mean_work;
};

SeriesPoint measure(core::SchemeKind kind, std::uint32_t n,
                    std::size_t steps_per_family) {
  core::SimulationPipeline pipeline({.kind = kind, .n = n, .seed = 13});
  const auto result = pipeline.run_stress(
      {.steps_per_family = steps_per_family, .seed = 515});
  return {n, pipeline.scheme().r, result.time.mean(), result.time.max(),
          result.work.mean()};
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "T2", "Theorem 2 (DMMPC upper bound)",
      "an arbitrary P-RAM step simulates on a DMMPC with "
      "M = n^(1+eps) in O(log n) time with r = O(1)");

  const std::size_t steps = 4;
  util::Table table({"n", "scheme", "r", "mean rounds", "max rounds",
                     "mean copy accesses"});
  table.set_title("protocol rounds per P-RAM step (worst over permutation/"
                  "stride/bit-reversal/adversarial batches)");

  std::vector<double> ns;
  std::vector<double> hp_mean;
  std::vector<double> uw_mean;
  for (const std::uint32_t n : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const auto hp = measure(core::SchemeKind::kDmmpc, n, steps);
    const auto uw = measure(core::SchemeKind::kUwMpc, n, steps);
    ns.push_back(n);
    hp_mean.push_back(hp.mean_rounds);
    uw_mean.push_back(uw.mean_rounds);
    table.add_row({static_cast<std::int64_t>(n), std::string("HP-DMMPC"),
                   static_cast<std::int64_t>(hp.r), hp.mean_rounds,
                   hp.max_rounds, hp.mean_work});
    table.add_row({static_cast<std::int64_t>(n), std::string("UW-MPC"),
                   static_cast<std::int64_t>(uw.r), uw.mean_rounds,
                   uw.max_rounds, uw.mean_work});
  }
  reporter.table(table, 1);
  std::printf("\n");

  reporter.fit("HP-DMMPC rounds/step", ns, hp_mean, "log n");
  reporter.fit("UW-MPC rounds/step", ns, uw_mean, "log n");

  std::printf(
      "Who wins: HP-DMMPC holds r = 7 at every n while UW-MPC's r grows\n"
      "with log m; both stay polylog in time, and the constant-redundancy\n"
      "scheme is also faster in absolute rounds because fewer copies\n"
      "contend for modules. That is Theorem 2's claim realized.\n");

  // The progress lemma made visible: live-variable decay per round on a
  // deliberately tight configuration (coarse granularity eps = 0.25, so
  // module bandwidth genuinely limits progress) with every live variable
  // probing each round. Lemma 2's expansion guarantees each round serves
  // a constant fraction of the live copies, so the live set must collapse
  // at a bounded rate — the mechanism behind both theorems' time bounds.
  // (The clustered protocol's decay is linear by construction — one
  // member turn per phase — so the contention-limited shape is shown in
  // the all-at-once mode.)
  {
    const std::uint32_t n = 4096;
    auto inst = core::make_scheme({.kind = core::SchemeKind::kDmmpc,
                                   .n = n,
                                   .eps = 0.25,
                                   .seed = 3,
                                   .all_at_once = true});
    const auto batch = memmap::adversarial_batch(inst.map ? *inst.map
                                                          : inst.engine->map(),
                                                 n, 9);
    std::vector<majority::VarRequest> reqs;
    reqs.reserve(batch.size());
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      reqs.push_back({batch[i], ProcId(i)});
    }
    majority::EngineResult result;
    inst.engine->run_step_into(reqs, result);
    util::Table decay({"round", "live variables", "fraction of n"});
    decay.set_title("live-set decay, adversarial step (n=4096, eps=0.25, all-at-once, r=" +
                    std::to_string(inst.r) + ")");
    const auto& curve = result.stats.live_per_phase;
    std::size_t last_printed = 0;
    for (std::size_t i = 0; i < curve.size();
         i += std::max<std::size_t>(1, curve.size() / 12)) {
      decay.add_row({static_cast<std::int64_t>(i + 1),
                     static_cast<std::int64_t>(curve[i]),
                     static_cast<double>(curve[i]) / n});
      last_printed = i;
    }
    if (last_printed + 1 != curve.size()) {
      decay.add_row({static_cast<std::int64_t>(curve.size()),
                     static_cast<std::int64_t>(curve.back()),
                     static_cast<double>(curve.back()) / n});
    }
    reporter.table(decay, 4);
    std::printf(
        "The live set collapses by a constant factor per protocol sweep —\n"
        "the geometric progress the Lemma 2 expansion guarantees.\n\n");
  }

  // Ablation: clusters vs all-at-once scheduling.
  {
    util::Table ablation({"n", "clustered rounds", "all-at-once rounds"});
    ablation.set_title(
        "ablation: two-stage cluster protocol vs unbounded parallelism");
    for (const std::uint32_t n : {256u, 1024u, 4096u}) {
      core::SimulationPipeline clustered(
          {.kind = core::SchemeKind::kDmmpc, .n = n});
      core::SimulationPipeline flat(
          {.kind = core::SchemeKind::kDmmpc, .n = n, .all_at_once = true});
      const auto rc = clustered.run_stress(
          {.steps_per_family = 3, .seed = 99, .include_map_adversarial = false});
      const auto rf = flat.run_stress(
          {.steps_per_family = 3, .seed = 99, .include_map_adversarial = false});
      ablation.add_row({static_cast<std::int64_t>(n), rc.time.mean(),
                        rf.time.mean()});
    }
    reporter.table(ablation, 1);
    std::printf(
        "All-at-once is the information-theoretic floor; the cluster\n"
        "protocol (what n processors can actually execute) tracks it\n"
        "within its constant factor.\n");
  }
  return 0;
}
