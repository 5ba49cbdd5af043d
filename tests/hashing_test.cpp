// Tests for universal hashing and the Mehlhorn-Vishkin probabilistic
// baseline memory.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "hashing/mv_memory.hpp"
#include "hashing/universal.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pramsim::hashing {
namespace {

using pram::VarWrite;
using pram::Word;

TEST(Mersenne61, ReduceIsCongruent) {
  util::Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto x = rng.next() >> 1;  // < 2^63
    const auto r = reduce_m61(x);
    EXPECT_LT(r, kMersenne61);
    EXPECT_EQ(r % kMersenne61, x % kMersenne61);
  }
}

TEST(Mersenne61, MulModMatchesNaive128) {
  util::Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto a = rng.below(kMersenne61);
    const auto b = rng.below(kMersenne61);
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a) * b) % kMersenne61);
    EXPECT_EQ(mul_mod_m61(a, b), expect);
  }
}

TEST(PolynomialHash, StaysInRange) {
  util::Rng rng(7);
  PolynomialHash h(2, 100, rng);
  for (std::uint64_t x = 0; x < 10'000; ++x) {
    EXPECT_LT(h(x), 100u);
  }
}

TEST(PolynomialHash, RoughlyUniform) {
  util::Rng rng(9);
  PolynomialHash h(2, 16, rng);
  std::vector<std::uint32_t> counts(16, 0);
  const int total = 160'000;
  for (int x = 0; x < total; ++x) {
    ++counts[h(static_cast<std::uint64_t>(x))];
  }
  for (const auto cnt : counts) {
    EXPECT_NEAR(cnt, total / 16.0, total / 16.0 * 0.1);
  }
}

TEST(PolynomialHash, DifferentSeedsDifferentFunctions) {
  util::Rng rng1(1);
  util::Rng rng2(2);
  PolynomialHash h1(2, 1 << 20, rng1);
  PolynomialHash h2(2, 1 << 20, rng2);
  int same = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    same += h1(x) == h2(x) ? 1 : 0;
  }
  EXPECT_LT(same, 20);
}

TEST(MvMemory, OracleConsistency) {
  MvMemory mem(1024, {.n_modules = 32, .seed = 3});
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(11);
  for (int step = 0; step < 100; ++step) {
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(20); i < k; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(1024)));
    }
    for (std::uint64_t i = 0, k = rng.below(20); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(1024)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1 << 20))});
    }
    std::vector<Word> values(reads.size());
    mem.step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      ASSERT_EQ(values[i], it == oracle.end() ? 0 : it->second);
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

TEST(MvMemory, TimeIsMaxModuleLoad) {
  MvMemory mem(4096, {.n_modules = 64, .seed = 5});
  // Find >= 3 variables hashing to the same module, request exactly those.
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_module;
  std::uint32_t hot_module = 0;
  for (std::uint32_t v = 0; v < 4096; ++v) {
    auto& bucket = by_module[mem.module_of(VarId(v))];
    bucket.push_back(v);
    if (bucket.size() >= 3) {
      hot_module = mem.module_of(VarId(v));
      break;
    }
  }
  const auto& hot = by_module[hot_module];
  ASSERT_GE(hot.size(), 3u);
  std::vector<VarId> reads;
  for (std::size_t i = 0; i < 3; ++i) {
    reads.emplace_back(hot[i]);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.time, 3u);
}

TEST(MvMemory, AdversarialBatchForcesSerialization) {
  // The deterministic-vs-probabilistic contrast: with a known hash, an
  // adversary can pick n variables in one module and force n rounds.
  MvMemory mem(1 << 16, {.n_modules = 64, .seed = 7});
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_module;
  for (std::uint32_t v = 0; v < (1 << 16); ++v) {
    by_module[mem.module_of(VarId(v))].push_back(v);
  }
  const auto& hottest =
      std::max_element(by_module.begin(), by_module.end(),
                       [](const auto& a, const auto& b) {
                         return a.second.size() < b.second.size();
                       })
          ->second;
  const std::size_t k = std::min<std::size_t>(hottest.size(), 64);
  std::vector<VarId> reads;
  for (std::size_t i = 0; i < k; ++i) {
    reads.emplace_back(hottest[i]);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.time, k);  // fully serialized
}

/// What a rehashing MvMemory serves and records over a fixed traffic.
struct RehashRun {
  std::vector<Word> values;
  std::uint64_t rehashes = 0;
  std::uint64_t load_count = 0;
  double load_sum = 0.0;
  double load_max = 0.0;
};

/// Four steps of 64 reads and 64 writes (half of them read+write
/// requests) through serve(plan, ctx) with a live executor, on `backend`
/// at executor worker override `workers`.
RehashRun serve_rehash_traffic(pram::ServeBackend backend,
                               std::size_t workers) {
  util::set_parallel_workers_override(workers);
  MvMemory mem(1 << 14,
               {.n_modules = 4, .seed = 9, .rehash_threshold = 2});
  EXPECT_EQ(mem.set_serve_backend(backend), backend);
  util::Executor executor;
  pram::ServeContext ctx({}, &executor);
  pram::PlanBuilder builder;
  RehashRun run;
  for (std::uint32_t step = 0; step < 4; ++step) {
    std::vector<VarId> reads;
    std::vector<VarWrite> writes;
    for (std::uint32_t v = 0; v < 64; ++v) {
      reads.emplace_back(v);
      writes.push_back({VarId(v + 32), 1000 * step + v});
    }
    const auto& plan = builder.build(reads, writes, mem);
    std::vector<Word> values(plan.reads.size());
    ctx.bind(values);
    mem.serve(plan, ctx);
    run.values.insert(run.values.end(), values.begin(), values.end());
  }
  util::set_parallel_workers_override(0);
  run.rehashes = mem.rehashes();
  run.load_count = mem.load_stats().count();
  run.load_sum = mem.load_stats().sum();
  run.load_max = mem.load_stats().max();
  return run;
}

TEST(MvMemory, RehashTriggersAboveThreshold) {
  const RehashRun serial =
      serve_rehash_traffic(pram::ServeBackend::kSerial, 0);
  // 96 distinct vars a step over 4 modules: some module holds >= 24 > 2.
  EXPECT_GE(serial.rehashes, 1u);
  // The rehash redraws the hash on the serving thread after the value
  // phase, so fanning that phase across workers changes nothing.
  const RehashRun gp =
      serve_rehash_traffic(pram::ServeBackend::kGroupParallel, 4);
  EXPECT_EQ(gp.values, serial.values);
  EXPECT_EQ(gp.rehashes, serial.rehashes);
  EXPECT_EQ(gp.load_count, serial.load_count);
  EXPECT_EQ(gp.load_sum, serial.load_sum);
  EXPECT_EQ(gp.load_max, serial.load_max);
}

TEST(MvMemory, MaxLoadGrowsSlowlyWithN) {
  // Balls-in-bins: n distinct vars into M = n modules gives max load
  // ~ log n / log log n in expectation — far below n.
  for (const std::uint32_t n : {256u, 1024u, 4096u}) {
    MvMemory mem(static_cast<std::uint64_t>(n) * n,
                 {.n_modules = n, .seed = 13});
    util::Rng rng(17);
    util::RunningStats max_loads;
    for (int trial = 0; trial < 10; ++trial) {
      const auto vars =
          rng.sample_without_replacement(static_cast<std::uint64_t>(n) * n, n);
      std::vector<VarId> reads;
      reads.reserve(vars.size());
      for (const auto v : vars) {
        reads.emplace_back(static_cast<std::uint32_t>(v));
      }
      std::vector<Word> values(reads.size());
      const auto cost = mem.step(reads, values, {});
      max_loads.add(static_cast<double>(cost.time));
    }
    const double bound = 4.0 * std::log2(n) / std::log2(std::log2(n));
    EXPECT_LT(max_loads.mean(), bound) << "n=" << n;
    EXPECT_GE(max_loads.mean(), 2.0) << "n=" << n;
  }
}

}  // namespace
}  // namespace pramsim::hashing
