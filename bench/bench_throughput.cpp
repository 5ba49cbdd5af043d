// Serve-path throughput: steps/sec for every SchemeKind through
// MemorySystem::serve over prebuilt arena-backed AccessPlans, then the
// serial backend against kGroupParallel. Written to
// BENCH_throughput.json via bench::Reporter — this file seeds the repo's
// perf trajectory, so keep the configurations stable across PRs.
//
// A third table measures the pipeline end to end: run_stress wall time
// with the double-buffered, within-trial-sharded driver.
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
/// Executor::plan_workers; ">1 workers" really fans chunks across the
/// parked pool even when the host has fewer cores than that (the forced
/// columns chart dispatch overhead; the auto column is what the
/// pipeline actually runs). Caveat for reading the w1 column: MvMemory
/// takes the group loop at any worker count, but MajorityMemory falls
/// back to its plain value loops when only one chunk would run — so for
/// kDmmpc, w1-vs-w2 differences mix group-indirection cost with
/// dispatch cost; only the kHashed rows isolate dispatch overhead.
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
      "the kGroupParallel backend serves >= 1.3x the serial backend on "
      "kDmmpc or kHashed at n = 2^12 (auto worker policy)");

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
    // Region-granular storage rows (same traffic, wide rows): the value
    // phases run the bulk memcmp-vote / GF(256)-span paths.
    configs.push_back({core::SchemeKind::kDmmpc, 4096, 0.5, 64});
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
    // Group-parallel wins twice — the precomputed groups replace the
    // per-request placement hashing in the load loop, and the value
    // phase fans across the parked worker pool.
    util::Table table({"scheme", "n", "region w", "steps/s serial",
                       "steps/s gp", "gp / serial", "steps/s gp 1wk",
                       "steps/s gp 2wk", "steps/s gp 4wk"});
    table.set_title("group-parallel serve backend (plan module groups "
                    "fanned across ServeContext executor workers; 'gp' = "
                    "hardware-aware auto policy, wN = forced N workers)");
    struct Config {
      core::SchemeKind kind;
      std::uint32_t n;
      double budget;
      std::uint32_t region = 1;
    };
    const std::vector<Config> configs = {
        {core::SchemeKind::kDmmpc, 256, 0.2},
        {core::SchemeKind::kHashed, 256, 0.2},
        {core::SchemeKind::kDmmpc, 4096, 0.4},
        {core::SchemeKind::kHashed, 4096, 0.4},
        // Width sweep: backend x region granularity on the same traffic.
        {core::SchemeKind::kDmmpc, 4096, 0.4, 8},
        {core::SchemeKind::kDmmpc, 4096, 0.4, 64},
    };
    for (const auto& config : configs) {
      core::SchemeSpec spec{.kind = config.kind, .n = config.n, .seed = 3,
                            .region_words = config.region};
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
    // Each scheme runs twice: observability detached (the default) and
    // attached with every step sampled — the overhead column is the obs
    // acceptance gate (attached tracing should cost low single digits).
    util::Table table({"scheme", "n", "trials", "stress steps", "wall ms",
                       "steps/s", "steps/s obs", "obs ovh %"});
    table.set_title("pipeline stress throughput (double-buffered, "
                    "within-trial family shards; 'obs' = metrics+journal+"
                    "phase timers attached, sample interval 1)");
    for (const auto kind : {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
                            core::SchemeKind::kHashed}) {
      core::SimulationPipeline pipeline({.kind = kind, .n = 256, .seed = 3});
      core::StressOptions options{.steps_per_family = 16, .seed = 7,
                                  .trials = 2};
      const util::Stopwatch plain_watch;
      const auto result = pipeline.run_stress(options);
      const double wall = plain_watch.elapsed_seconds();

      options.obs_enabled = true;
      const util::Stopwatch obs_watch;
      const auto obs_result = pipeline.run_stress(options);
      const double obs_wall = obs_watch.elapsed_seconds();

      const double plain_rate = static_cast<double>(result.steps) / wall;
      const double obs_rate =
          static_cast<double>(obs_result.steps) / obs_wall;
      table.add_row({core::to_string(kind), std::int64_t{256},
                     static_cast<std::int64_t>(options.trials),
                     static_cast<std::int64_t>(result.steps), wall * 1e3,
                     plain_rate, obs_rate,
                     (plain_rate / obs_rate - 1.0) * 100.0});
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
