// Cache layer benchmark: cache::CachedMemory in front of the assembled
// schemes under the skewed trace families.
//
// Table 1: hit rate vs Zipf skew exponent at fixed capacity — one COLD
//   single pass (no replay), so the rate reflects how much of the skewed
//   head the clock policy actually captures, not a fully warmed replay.
// Table 2: end-to-end steps/s, cached vs uncached, per SchemeKind at
//   n = 4096 with capacity = m/8 under kZipfian s = 1.1 — the PR's
//   acceptance configuration (>= 1.5x for >= 2 redundant kinds).
// Table 3: capacity sweep on kDmmpc — hit rate and speedup as the cache
//   shrinks from m/4 to m/32.
//
// Mirrored into BENCH_cache.json (schema v4); a baseline copy lives at
// the repo root and CI diffs schema/manifest against it.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "cache/cached_memory.hpp"
#include "core/schemes.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace pramsim;

std::vector<pram::AccessBatch> make_zipf_trace(std::uint32_t n,
                                               std::uint64_t m,
                                               std::size_t steps, double s,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  pram::TraceParams params;
  params.write_fraction = 0.3;
  params.zipf_exponent = s;
  return pram::make_trace(pram::TraceFamily::kZipfian, n, m, steps, rng,
                          params);
}

/// Prebuild plans for `memory` (grouping follows its wants_plan_groups).
struct PlanSet {
  std::vector<std::unique_ptr<pram::PlanBuilder>> builders;
  std::vector<const pram::AccessPlan*> plans;
};

PlanSet build_plans(const std::vector<pram::AccessBatch>& trace,
                    const pram::MemorySystem& memory) {
  PlanSet set;
  set.builders.reserve(trace.size());
  set.plans.reserve(trace.size());
  for (const auto& batch : trace) {
    set.builders.push_back(std::make_unique<pram::PlanBuilder>());
    set.plans.push_back(&set.builders.back()->build(batch, memory));
  }
  return set;
}

/// Steady-state serve throughput: one untimed warm pass (fills the cache
/// to its steady hot set), then replay until the budget elapses.
double measure_steps_per_sec(pram::MemorySystem& memory,
                             const PlanSet& set, double budget_sec) {
  std::vector<pram::Word> values;
  pram::ServeContext ctx;
  for (const auto* plan : set.plans) {
    values.resize(plan->reads.size());
    ctx.bind(values);
    memory.serve(*plan, ctx);
  }
  std::size_t steps = 0;
  const util::Stopwatch watch;
  double elapsed = 0.0;
  do {
    for (const auto* plan : set.plans) {
      values.resize(plan->reads.size());
      ctx.bind(values);
      memory.serve(*plan, ctx);
    }
    steps += set.plans.size();
    elapsed = watch.elapsed_seconds();
  } while (elapsed < budget_sec);
  return static_cast<double>(steps) / elapsed;
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "cache",
      "hot-set cache layer (src/cache) under skewed P-RAM traffic",
      "at n = 4096, kZipfian s = 1.1, capacity = m/8, the cached serve "
      "path sustains >= 1.5x the uncached steps/s for >= 2 redundant "
      "SchemeKinds, and the hit rate is monotone in the skew exponent");
  {
    bench::RunManifest manifest;
    manifest.scheme = "cache::CachedMemory over assembled schemes";
    manifest.seed = 17;
    manifest.backend = "serial";
    reporter.set_manifest(manifest);
  }

  {
    // Cold-pass hit rate vs skew: FlatMemory behind the cache isolates
    // the policy (no scheme cost in the denominator of anything — this
    // table is about WHAT the clock policy captures, not time).
    const std::uint32_t n = 4096;
    const std::uint64_t m = 262144;
    const std::uint64_t capacity = m / 8;
    util::Table table({"zipf s", "m", "capacity", "accesses", "hits",
                       "evictions", "hit rate"});
    table.set_title("cold-pass hit rate vs Zipf skew exponent "
                    "(FlatMemory inner, capacity = m/8, 64 steps, "
                    "no replay)");
    for (const double s : {0.3, 0.7, 1.1, 1.5}) {
      cache::CachedMemory cached(std::make_unique<pram::FlatMemory>(m),
                                 cache::CacheConfig{.capacity = capacity});
      const auto trace = make_zipf_trace(n, m, 64, s, 17);
      const auto set = build_plans(trace, cached);
      std::vector<pram::Word> values;
      pram::ServeContext ctx;
      for (const auto* plan : set.plans) {
        values.resize(plan->reads.size());
        ctx.bind(values);
        cached.serve(*plan, ctx);
      }
      const auto& stats = cached.stats();
      table.add_row({s, static_cast<std::int64_t>(m),
                     static_cast<std::int64_t>(capacity),
                     static_cast<std::int64_t>(stats.hits + stats.misses),
                     static_cast<std::int64_t>(stats.hits),
                     static_cast<std::int64_t>(stats.evictions),
                     stats.hit_rate()});
      std::fflush(stdout);
    }
    reporter.table(table, 4);
  }

  {
    // The acceptance table: cached vs uncached steps/s per SchemeKind at
    // n = 4096 (k = 1.5 keeps m = n^1.5 = 262144 so the redundant
    // organizations assemble in seconds), capacity = m/8, s = 1.1.
    const std::uint32_t n = 4096;
    const double k = 1.5;
    util::Table table({"scheme", "n", "m", "capacity", "steps/s uncached",
                       "steps/s cached", "speedup", "hit rate"});
    table.set_title("end-to-end serve throughput, cached vs uncached "
                    "(kZipfian s = 1.1, capacity = m/8, steady state)");
    for (const auto kind :
         {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
          core::SchemeKind::kHashed}) {
      const core::SchemeSpec spec{.kind = kind, .n = n, .k = k, .seed = 3};
      auto uncached = core::make_memory(spec);
      const std::uint64_t m = uncached->size();
      const std::uint64_t capacity = m / 8;
      // 32 distinct steps keep the skewed working set inside an m/8
      // cache (the regime the layer targets); Table 1 charts what
      // happens to the hit rate when it does not fit.
      const auto trace = make_zipf_trace(n, m, 32, 1.1, 17);

      const auto uncached_plans = build_plans(trace, *uncached);
      const double base =
          measure_steps_per_sec(*uncached, uncached_plans, 0.4);

      cache::CachedMemory cached(core::make_memory(spec),
                                 cache::CacheConfig{.capacity = capacity});
      const auto cached_plans = build_plans(trace, cached);
      const double fast = measure_steps_per_sec(cached, cached_plans, 0.4);

      table.add_row({core::to_string(kind), static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(m),
                     static_cast<std::int64_t>(capacity), base, fast,
                     fast / base, cached.stats().hit_rate()});
      std::fflush(stdout);
    }
    reporter.table(table, 3);
  }

  {
    // Capacity sweep: how small can the hot set get before the cache
    // stops paying? kDmmpc at n = 1024, same skew.
    const std::uint32_t n = 1024;
    const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc, .n = n,
                                .seed = 3};
    auto uncached = core::make_memory(spec);
    const std::uint64_t m = uncached->size();
    const auto trace = make_zipf_trace(n, m, 32, 1.1, 17);
    const auto uncached_plans = build_plans(trace, *uncached);
    const double base =
        measure_steps_per_sec(*uncached, uncached_plans, 0.3);

    util::Table table({"capacity", "m/capacity", "hit rate",
                       "steps/s cached", "speedup"});
    table.set_title("capacity sweep, kDmmpc n = 1024 (kZipfian s = 1.1; "
                    "uncached baseline " + std::to_string(base) +
                    " steps/s)");
    for (const std::uint64_t divisor : {32, 16, 8, 4}) {
      const std::uint64_t capacity = m / divisor;
      cache::CachedMemory cached(core::make_memory(spec),
                                 cache::CacheConfig{.capacity = capacity});
      const auto cached_plans = build_plans(trace, cached);
      const double fast = measure_steps_per_sec(cached, cached_plans, 0.3);
      table.add_row({static_cast<std::int64_t>(capacity),
                     static_cast<std::int64_t>(divisor),
                     cached.stats().hit_rate(), fast, fast / base});
      std::fflush(stdout);
    }
    reporter.table(table, 3);
  }

  return 0;
}
