// Serve-path throughput: steps/sec for every SchemeKind through
// MemorySystem::serve over prebuilt arena-backed AccessPlans, then the
// serial backend against kGroupParallel (request ranges of the value
// phase fanned across executor workers). Written to
// BENCH_throughput.json via bench::Reporter — this file seeds the repo's
// perf trajectory, so keep the configurations stable across PRs.
//
// A third table measures the pipeline end to end: run_stress wall time
// through the driver's step loop, one shard at a time with plan building
// overlapped, detached and with observability attached.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "pram/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace pramsim;

/// Raw batches for the serve loop: alternating permutation / uniform
/// steps (distinct-heavy and collision-heavy traffic).
std::vector<pram::AccessBatch> make_bench_trace(std::uint32_t n,
                                                std::uint64_t m,
                                                std::size_t steps) {
  util::Rng rng(17);
  std::vector<pram::AccessBatch> trace;
  trace.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto family = (i % 2 == 0) ? pram::TraceFamily::kPermutation
                                     : pram::TraceFamily::kUniform;
    trace.push_back(pram::make_batch(family, n, m, rng));
  }
  return trace;
}

/// Steps/sec of serve() on a fresh instance of `spec` over plans built
/// once, outside the timed loop.
double measure(const core::SchemeSpec& spec,
               const std::vector<pram::AccessBatch>& trace,
               double budget_sec) {
  auto memory = core::make_memory(spec);
  std::vector<std::unique_ptr<pram::PlanBuilder>> builders;
  builders.reserve(trace.size());
  std::vector<const pram::AccessPlan*> plans;
  plans.reserve(trace.size());
  for (const auto& batch : trace) {
    builders.push_back(std::make_unique<pram::PlanBuilder>());
    plans.push_back(&builders.back()->build(batch, *memory));
  }

  std::vector<pram::Word> values;
  pram::ServeContext ctx;
  auto serve_all = [&] {
    for (const auto* plan : plans) {
      values.resize(plan->reads.size());
      ctx.bind(values);
      memory->serve(*plan, ctx);
    }
  };
  serve_all();  // warm-up: first-touch allocations, sparse stores
  std::size_t steps = 0;
  const util::Stopwatch watch;
  double elapsed = 0.0;
  do {
    serve_all();
    steps += plans.size();
    elapsed = watch.elapsed_seconds();
  } while (elapsed < budget_sec);
  return static_cast<double>(steps) / elapsed;
}

/// Serve-path throughput of one backend at a pinned executor worker
/// count (0 = the hardware-aware automatic policy), through the context
/// entry over prebuilt plans. The worker override steers
/// Executor::plan_workers; ">1 workers" really fans request ranges
/// across the parked pool even when the host has fewer cores than that
/// (the forced columns chart dispatch overhead; the auto column is what
/// the pipeline actually runs). At one worker both backends run the
/// same value-phase body as one chunk.
double measure_backend(const core::SchemeSpec& spec,
                       const std::vector<pram::AccessBatch>& trace,
                       std::size_t workers, double budget_sec) {
  auto memory = core::make_memory(spec);
  std::vector<std::unique_ptr<pram::PlanBuilder>> builders;
  std::vector<const pram::AccessPlan*> plans;
  builders.reserve(trace.size());
  plans.reserve(trace.size());
  for (const auto& batch : trace) {
    builders.push_back(std::make_unique<pram::PlanBuilder>());
    plans.push_back(&builders.back()->build(batch, *memory));
  }

  util::Executor executor;
  pram::ServeContext ctx({}, &executor);
  std::vector<pram::Word> values;
  util::set_parallel_workers_override(workers);
  for (const auto* plan : plans) {  // warm-up pass
    values.resize(plan->reads.size());
    ctx.bind(values);
    memory->serve(*plan, ctx);
  }
  std::size_t steps = 0;
  const util::Stopwatch watch;
  double elapsed = 0.0;
  do {
    for (const auto* plan : plans) {
      values.resize(plan->reads.size());
      ctx.bind(values);
      memory->serve(*plan, ctx);
    }
    steps += plans.size();
    elapsed = watch.elapsed_seconds();
  } while (elapsed < budget_sec);
  util::set_parallel_workers_override(0);
  return static_cast<double>(steps) / elapsed;
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "throughput", "serve-path throughput (serial and group-parallel)",
      "none (an engineering measurement): serve-path steps/s for every "
      "SchemeKind over prebuilt plans, and the kGroupParallel backend's "
      "rate against the serial backend's at auto/1/2/4 workers; the "
      "engine schedule stays serial, so that ratio may sit below 1x");

  {
    util::Table table({"scheme", "n", "m", "region w", "steps/s"});
    table.set_title("per-step serve throughput, prebuilt plans "
                    "(permutation+uniform traffic; region w = storage "
                    "granularity in words, 1 = classic layout)");
    struct Config {
      core::SchemeKind kind;
      std::uint32_t n;
      double budget;
      std::uint32_t region = 1;
    };
    std::vector<Config> configs;
    for (const auto kind : core::all_scheme_kinds()) {
      configs.push_back({kind, 256, 0.2});
    }
    // Production-ish scale, m = n^2: the sparse-memory rows CI runs
    // under its peak-RSS ceiling.
    configs.push_back({core::SchemeKind::kDmmpc, 4096, 0.5});
    configs.push_back({core::SchemeKind::kHashed, 4096, 0.5});
    // A region-granular IDA row (same traffic, wide share rows): the
    // value phase runs the GF(256) span recodes.
    configs.push_back({core::SchemeKind::kIda, 256, 0.2, 64});

    for (const auto& config : configs) {
      const core::SchemeSpec spec{.kind = config.kind, .n = config.n,
                                  .seed = 3,
                                  .region_words = config.region};
      const auto instance = core::make_scheme(spec);
      const std::size_t steps = config.n >= 4096 ? 8 : 16;
      const auto trace = make_bench_trace(config.n, instance.m, steps);
      table.add_row({core::to_string(config.kind),
                     static_cast<std::int64_t>(config.n),
                     static_cast<std::int64_t>(instance.m),
                     static_cast<std::int64_t>(instance.region_words),
                     measure(spec, trace, config.budget)});
      std::fflush(stdout);
    }
    reporter.table(table, 1);
  }

  {
    // The parallel-serve trajectory: serial backend vs kGroupParallel at
    // 1/2/4 executor workers, same prebuilt plans, same context entry.
    util::Table table({"scheme", "n", "region w", "steps/s serial",
                       "steps/s gp", "gp / serial", "steps/s gp 1wk",
                       "steps/s gp 2wk", "steps/s gp 4wk"});
    table.set_title("group-parallel serve backend (value-phase request "
                    "ranges fanned across ServeContext executor workers; "
                    "'gp' = hardware-aware auto policy, wN = forced N "
                    "workers)");
    struct Config {
      core::SchemeKind kind;
      std::uint32_t n;
      double budget;
    };
    const std::vector<Config> configs = {
        {core::SchemeKind::kDmmpc, 256, 0.2},
        {core::SchemeKind::kHashed, 256, 0.2},
        {core::SchemeKind::kDmmpc, 4096, 0.4},
        {core::SchemeKind::kHashed, 4096, 0.4},
    };
    for (const auto& config : configs) {
      core::SchemeSpec spec{.kind = config.kind, .n = config.n, .seed = 3};
      const auto instance = core::make_scheme(spec);
      const std::size_t steps = config.n >= 4096 ? 8 : 16;
      const auto trace = make_bench_trace(config.n, instance.m, steps);
      const double serial =
          measure_backend(spec, trace, 0, config.budget);
      spec.backend = pram::ServeBackend::kGroupParallel;
      const double gp_auto = measure_backend(spec, trace, 0, config.budget);
      const double gp1 = measure_backend(spec, trace, 1, config.budget);
      const double gp2 = measure_backend(spec, trace, 2, config.budget);
      const double gp4 = measure_backend(spec, trace, 4, config.budget);
      table.add_row({core::to_string(config.kind),
                     static_cast<std::int64_t>(config.n),
                     static_cast<std::int64_t>(instance.region_words),
                     serial, gp_auto, gp_auto / serial, gp1, gp2, gp4});
      std::fflush(stdout);
    }
    reporter.table(table, 1);
  }

  {
    // Each scheme runs five times detached (the default) and five times
    // attached with every step sampled, alternating. At trials = 1 the
    // four shards (three families plus the adversarial stage) run one at
    // a time on one worker, so every family shard overlaps plan building
    // with serving. Rates are medians; an obs overhead inside the plain
    // runs' spread is noise.
    constexpr int kRuns = 5;
    util::Table table({"scheme", "n", "trials", "stress steps", "wall ms",
                       "steps/s", "steps/s obs", "obs ovh %", "spread %"});
    table.set_title("pipeline stress throughput (trials = 1: 4 shards on "
                    "1 worker, plan building overlapped; medians of 5 "
                    "alternating runs; 'obs' = metrics+journal+phase "
                    "timers attached, sample interval 1; spread = "
                    "(max - min) / median of the plain rates)");
    for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                            core::SchemeKind::kHashed}) {
      core::SimulationPipeline pipeline({.kind = kind, .n = 256, .seed = 3});
      const core::StressOptions plain{.steps_per_family = 16, .seed = 7,
                                      .trials = 1};
      core::StressOptions observed = plain;
      observed.obs = obs::SinkOptions{};
      util::SampleSet plain_rates;
      util::SampleSet obs_rates;
      util::SampleSet plain_walls;
      std::uint64_t steps = 0;
      for (int run = 0; run < kRuns; ++run) {
        for (const bool attached : {false, true}) {
          const util::Stopwatch watch;
          const auto result = pipeline.run_stress(attached ? observed : plain);
          const double wall = watch.elapsed_seconds();
          steps = result.steps;
          const double rate = static_cast<double>(result.steps) / wall;
          (attached ? obs_rates : plain_rates).add(rate);
          if (!attached) {
            plain_walls.add(wall);
          }
        }
      }
      const double plain_rate = plain_rates.median();
      const double obs_rate = obs_rates.median();
      table.add_row({core::to_string(kind), std::int64_t{256},
                     static_cast<std::int64_t>(plain.trials),
                     static_cast<std::int64_t>(steps),
                     plain_walls.median() * 1e3, plain_rate, obs_rate,
                     (plain_rate / obs_rate - 1.0) * 100.0,
                     (plain_rates.max() - plain_rates.percentile(0.0)) /
                         plain_rate * 100.0});
    }
    reporter.table(table, 1);
  }

  bench::RunManifest manifest;
  manifest.scheme = "kind sweep (see table rows)";
  manifest.seed = 3;
  manifest.backend = "serial + group-parallel (per table)";
  manifest.obs_enabled = false;  // timed loops run detached by default
  reporter.set_manifest(manifest);

  return 0;
}
