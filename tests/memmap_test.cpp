// Tests for memory maps, the Lemma 2 / Theorem 1 parameter calculus, the
// bad-map union bound, and the expansion verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "memmap/expansion.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "util/isa.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::memmap {
namespace {

// ----------------------------------------------------------- maps -------

TEST(TableMap, CopiesAreDistinctModules) {
  TableMap map(1000, 64, 7, /*seed=*/1);
  for (std::uint32_t v = 0; v < 1000; ++v) {
    const auto copies = map.copies(VarId(v));
    ASSERT_EQ(copies.size(), 7u);
    std::set<std::uint32_t> mods;
    for (const auto mod : copies) {
      ASSERT_LT(mod.value(), 64u);
      mods.insert(mod.value());
    }
    EXPECT_EQ(mods.size(), 7u) << "var " << v;
  }
}

TEST(TableMap, DeterministicGivenSeed) {
  TableMap a(500, 32, 5, 42);
  TableMap b(500, 32, 5, 42);
  for (std::uint32_t v = 0; v < 500; ++v) {
    EXPECT_EQ(a.copies(VarId(v)), b.copies(VarId(v)));
  }
}

TEST(TableMap, DifferentSeedsDiffer) {
  TableMap a(500, 256, 5, 1);
  TableMap b(500, 256, 5, 2);
  int identical = 0;
  for (std::uint32_t v = 0; v < 500; ++v) {
    identical += a.copies(VarId(v)) == b.copies(VarId(v)) ? 1 : 0;
  }
  EXPECT_LT(identical, 5);
}

TEST(TableMap, LoadAccountingConsistent) {
  TableMap map(2000, 128, 3, 7);
  std::uint64_t total = 0;
  for (std::uint32_t mod = 0; mod < 128; ++mod) {
    total += map.module_load(ModuleId(mod));
  }
  EXPECT_EQ(total, 2000u * 3u);
  EXPECT_GE(map.max_module_load(), (2000u * 3u) / 128u);
  EXPECT_GE(map.load_imbalance(), 1.0);
  EXPECT_LT(map.load_imbalance(), 3.0);  // random placement is near-balanced
}

TEST(TableMap, FullRedundancyEqualsModules) {
  // r == M forces every variable into every module.
  TableMap map(50, 5, 5, 3);
  for (std::uint32_t v = 0; v < 50; ++v) {
    const auto copies = map.copies(VarId(v));
    std::set<std::uint32_t> mods;
    for (const auto c : copies) {
      mods.insert(c.value());
    }
    EXPECT_EQ(mods.size(), 5u);
  }
}

TEST(HashedMap, CopiesDistinctAndDeterministic) {
  HashedMap map(1'000'000, 4096, 7, 99);
  for (std::uint32_t v = 0; v < 2000; ++v) {
    const auto a = map.copies(VarId(v));
    const auto b = map.copies(VarId(v));
    EXPECT_EQ(a, b);
    std::set<std::uint32_t> mods;
    for (const auto mod : a) {
      ASSERT_LT(mod.value(), 4096u);
      mods.insert(mod.value());
    }
    EXPECT_EQ(mods.size(), 7u);
  }
}

TEST(HashedMap, SpreadsAcrossModules) {
  HashedMap map(100'000, 512, 7, 5);
  std::unordered_set<std::uint32_t> seen;
  for (std::uint32_t v = 0; v < 2000; ++v) {
    for (const auto mod : map.copies(VarId(v))) {
      seen.insert(mod.value());
    }
  }
  // 14000 copy placements over 512 modules should touch nearly all.
  EXPECT_GT(seen.size(), 500u);
}

TEST(SingleCopyMap, HasRedundancyOne) {
  const auto map = std::make_unique<HashedMap>(10'000, 64, 1, 11);
  EXPECT_EQ(map->redundancy(), 1u);
  std::unordered_set<std::uint32_t> seen;
  for (std::uint32_t v = 0; v < 1000; ++v) {
    const auto copies = map->copies(VarId(v));
    ASSERT_EQ(copies.size(), 1u);
    seen.insert(copies[0].value());
  }
  EXPECT_GT(seen.size(), 55u);
}

// ------------------------------------------------- batch placement ------

/// A geometry the library places through, with the fold of copies_into
/// over every variable, recorded before the batch kernel existed: it pins
/// the reference stream itself, which the schedule fingerprints only
/// cover indirectly.
struct Geometry {
  const char* name;
  std::uint64_t m;
  std::uint32_t modules;
  std::uint32_t r;
  std::uint64_t golden;
};

constexpr std::uint64_t kMapSeed = 17;

const Geometry kGeometries[] = {
    // serve_dmmpc's Theorem 2 map (n = 4096, m = n^1.5).
    {"r5", 1U << 18, 1U << 18, 5, 0xD8E880F572D425E7ULL},
    // durable_faults' map (n = 1024, m = n^2).
    {"r7", 1U << 20, 1U << 20, 7, 0x7AA0D7F8F0DD2889ULL},
    // IDA's share placement at m = 2^20, b = 10, d = 20.
    {"ida_d20", 104'858, 1U << 20, 20, 0x646489B39AD58D4AULL},
    // A module count that is no power of two: Lemire's threshold is live.
    {"prime_modules", 100'003, 100'003, 5, 0xEFE95461D5094CAEULL},
    // r == M: nearly every lane draws a module it already holds.
    {"modules_eq_r", 4096, 5, 5, 0xDC93D7E0293FF3F3ULL},
    {"single_copy", 1U << 16, 1U << 12, 1, 0x50F308B03B12EE0EULL},
};

std::uint64_t fold_copies(const MemoryMap& map) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::vector<ModuleId> row(map.redundancy());
  for (std::uint64_t v = 0; v < map.num_vars(); ++v) {
    map.copies_into(VarId(static_cast<std::uint32_t>(v)), row);
    for (const ModuleId module : row) {
      h = (h ^ module.value()) * 0x100000001B3ULL;
    }
  }
  return h;
}

/// Places `keys` through both batch entries of `map`: the dispatching
/// one (HashedMap's AVX2 kernel on hosts that have it) and the base
/// class's copies_into loop. Each writes a table followed by guard rows;
/// every row must equal copies_into's and the guard rows must stay
/// untouched.
void expect_batch_matches(const MemoryMap& map, std::span<const VarId> keys) {
  const std::uint32_t r = map.redundancy();
  const ModuleId guard(~0U);
  std::vector<ModuleId> expected(r);
  for (const bool scalar : {false, true}) {
    std::vector<ModuleId> table((keys.size() + 4) * r, guard);
    const std::span<ModuleId> rows(table.data(), keys.size() * r);
    if (scalar) {
      map.MemoryMap::copies_batch(keys, rows);
    } else {
      map.copies_batch(keys, rows);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      map.copies_into(keys[i], expected);
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             rows.begin() + static_cast<std::ptrdiff_t>(i * r)))
          << (scalar ? "scalar loop" : "dispatching entry") << ": key "
          << i << " (var " << keys[i].value() << ") of " << keys.size();
    }
    for (std::size_t i = rows.size(); i < table.size(); ++i) {
      ASSERT_EQ(table[i], guard)
          << (scalar ? "scalar loop" : "dispatching entry")
          << " wrote past its table of " << keys.size() << " rows";
    }
  }
}

TEST(HashedMapBatch, ReferenceStreamMatchesGoldenFold) {
  for (const Geometry& g : kGeometries) {
    const HashedMap map(g.m, g.modules, g.r, kMapSeed);
    EXPECT_EQ(fold_copies(map), g.golden) << g.name;
  }
}

TEST(HashedMapBatch, EqualsCopiesIntoOnEveryVariable) {
  RecordProperty("avx2", util::have_avx2() ? "yes" : "no");
  // Chunks that are no multiple of four end every batch in a tail.
  constexpr std::uint64_t kChunk = (1U << 14) + 3;
  std::vector<VarId> keys;
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(g.name);
    const HashedMap map(g.m, g.modules, g.r, kMapSeed);
    for (std::uint64_t lo = 0; lo < g.m; lo += kChunk) {
      keys.clear();
      for (std::uint64_t v = lo; v < std::min(g.m, lo + kChunk); ++v) {
        keys.emplace_back(static_cast<std::uint32_t>(v));
      }
      expect_batch_matches(map, keys);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(HashedMapBatch, LemireRejectionsPlaceLikeCopiesInto) {
  // M = 2^32 - 65535, so 2^64 mod M = 65535^2 and about one draw in 2^32
  // rejects. Found by scanning the stream: each of these variables
  // rejects one of its first r draws.
  constexpr std::uint32_t kModules = 4'294'901'761U;
  constexpr std::uint32_t kR = 5;
  const HashedMap map(1ULL << 32, kModules, kR, kMapSeed);
  const std::uint64_t threshold = (0 - std::uint64_t{kModules}) % kModules;
  for (const std::uint32_t var : {1'215'275'006U, 1'472'110'386U,
                                  1'673'794'801U}) {
    // The premise, through the stream's own generators: the low half of
    // one of the first r draws times M falls below the threshold.
    util::SplitMix64 mixer(kMapSeed ^
                           (util::SplitMix64::kGamma * (var + 1ULL)));
    util::Rng rng(mixer.next());
    bool rejects = false;
    for (std::uint32_t draw = 0; draw < kR; ++draw) {
      const auto product = static_cast<__uint128_t>(rng.next()) * kModules;
      rejects = rejects || static_cast<std::uint64_t>(product) < threshold;
    }
    ASSERT_TRUE(rejects) << "var " << var;
    // The rejecting variable in every lane of a group of four.
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      std::vector<VarId> keys;
      for (std::uint32_t i = 0; i < 4; ++i) {
        keys.emplace_back(i == lane ? var : var + 10 + i);
      }
      expect_batch_matches(map, keys);
    }
  }
}

TEST(HashedMapBatch, CountsZeroToNine) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(g.name);
    const HashedMap map(g.m, g.modules, g.r, kMapSeed);
    for (std::uint32_t count = 0; count <= 9; ++count) {
      std::vector<VarId> keys;
      for (std::uint32_t i = 0; i < count; ++i) {
        keys.emplace_back(static_cast<std::uint32_t>((i * 7919ULL) % g.m));
      }
      expect_batch_matches(map, keys);
    }
  }
}

TEST(HashedMapBatch, UnsortedKeysWithRepeats) {
  const HashedMap map(1U << 18, 1U << 18, 5, kMapSeed);
  const std::uint32_t last = (1U << 18) - 1;
  const std::vector<VarId> keys = {
      VarId(9),  VarId(3),    VarId(3),  VarId(last), VarId(9),
      VarId(0),  VarId(last), VarId(3),  VarId(42),   VarId(42),
      VarId(7),  VarId(0),    VarId(42), VarId(1),    VarId(9)};
  expect_batch_matches(map, keys);
}

TEST(TableMap, BatchEqualsCopiesInto) {
  const TableMap map(1000, 64, 7, 1);
  std::vector<VarId> keys;
  for (std::uint32_t v = 0; v < 1000; v += 3) {
    keys.emplace_back(999 - v);
  }
  expect_batch_matches(map, keys);
}

// ------------------------------------------------------ parameters ------

TEST(Params, Lemma2MinCMatchesHandComputedValues) {
  // b=4, k=2, eps=1: bound = max((8-1)/2, 3/2) = 3.5 -> c = 4.
  EXPECT_EQ(lemma2_min_c(4.0, 2.0, 1.0), 4u);
  // b=8, k=2, eps=1: bound = max((16-1)/6, 7/6) = 2.5 -> c = 3.
  EXPECT_EQ(lemma2_min_c(8.0, 2.0, 1.0), 3u);
  // b=4, k=3, eps=1: (12-1)/2 = 5.5 -> c = 6.
  EXPECT_EQ(lemma2_min_c(4.0, 3.0, 1.0), 6u);
  // Exact-integer bound must round strictly up: pick params where
  // (bk-eps)/(eps(b-2)) = 3 exactly: b=4, eps=1, k=(3*2+1)/4 ... use
  // b=3, k=1, eps=1: (3-1)/1 = 2 - bound2 = 2 -> strict > 2 -> c = 3.
  EXPECT_EQ(lemma2_min_c(3.0, 1.0, 1.0), 3u);
}

TEST(Params, Lemma2RedundancyIsConstantInN) {
  // The headline: c (hence r) depends only on (b, k, eps), never on n.
  const auto r = lemma2_redundancy(4.0, 2.0, 1.0);
  EXPECT_EQ(r, 7u);
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u, 65536u}) {
    const auto p = derive_params(n, 2.0, 1.0, 4.0);
    EXPECT_EQ(p.r, r) << "n=" << n;
  }
}

TEST(Params, Lemma2MonotoneInGranularity) {
  // Larger eps (finer granularity, more modules) => no more redundancy.
  std::uint32_t prev = ~0u;
  for (double eps : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    const auto c = lemma2_min_c(4.0, 2.0, eps);
    EXPECT_LE(c, prev) << "eps=" << eps;
    prev = c;
  }
}

TEST(Params, UwRedundancyGrowsLogarithmically) {
  const auto r64 = uw_redundancy(1ULL << 12, 4.0);   // m = 4096
  const auto r2 = uw_redundancy(1ULL << 24, 4.0);    // m = 16M
  EXPECT_GT(r2, r64);
  // c = ceil(log_4 m): log_4(2^12) = 6, log_4(2^24) = 12.
  EXPECT_EQ(uw_c(1ULL << 12, 4.0), 6u);
  EXPECT_EQ(uw_c(1ULL << 24, 4.0), 12u);
}

TEST(Params, Theorem1CollapsesWithGranularity) {
  // m = n^2. With M = n (one module per processor, the MPC regime) a fast
  // simulation (small h) forces many updated copies; with M = n^2 modules
  // the same counting argument collapses to ~1 copy. The contrast is the
  // paper's central claim. (The counting bound is ~half the closed form
  // and is tightest for small h, so we probe h = 2.)
  const double n = 1 << 20;
  const double m = n * n;
  const double h = 2.0;
  const auto p_coarse = theorem1_min_p(n, /*M=*/n, m, h);
  const auto p_fine = theorem1_min_p(n, /*M=*/n * n, m, h);
  EXPECT_GT(p_coarse, p_fine);
  EXPECT_GE(p_coarse, 4u);  // grows like log n / (eps log n + log h)
  EXPECT_LE(p_fine, 2u);    // essentially constant
}

TEST(Params, Theorem1ClosedFormMatchesShape) {
  // Closed form (k-1)logn/(eps logn + log h) at k=2, eps=1, h=log^2 n
  // approaches 1 for large n.
  const double v = theorem1_closed_form(1 << 20, 2.0, 1.0, 400.0);
  EXPECT_GT(v, 0.5);
  EXPECT_LT(v, 1.5);
  // eps -> 0 (the MPC regime) blows the bound up to ~log n / log h.
  const double coarse = theorem1_closed_form(1 << 20, 2.0, 0.01, 400.0);
  EXPECT_GT(coarse, 2.0);
}

TEST(Params, Theorem1MinPMonotoneInTime) {
  // Allowing more time h weakens the required redundancy.
  const double n = 1 << 14;
  const double m = n * n;
  const double M = std::pow(n, 1.5);
  std::uint32_t prev = ~0u;
  for (double h : {2.0, 8.0, 64.0, 512.0}) {
    const auto p = theorem1_min_p(n, M, m, h);
    EXPECT_LE(p, prev) << "h=" << h;
    prev = p;
  }
}

TEST(Params, BadMapBoundTransitionsAtLemma2Threshold) {
  // At c safely above the Lemma 2 threshold the union bound is tiny; at
  // c = 2 (below threshold for k=2, eps=1, b=4 where c_min=4) it is
  // vacuous (>= 0) or at least dramatically larger.
  const double n = 4096;
  const double m = n * n;
  const double M = n * n;
  const double good = bad_map_log2_union_bound(n, m, M, 6, 4.0);
  const double bad = bad_map_log2_union_bound(n, m, M, 2, 4.0);
  EXPECT_LT(good, -20.0);
  EXPECT_GT(bad, good + 20.0);
}

TEST(Params, BadMapBoundShrinksWithN) {
  // For fixed constants, the bad-map fraction vanishes as n grows: maps
  // exist "for n sufficiently large" (Lemma 2's phrasing).
  double prev = 1e9;
  for (double n : {256.0, 1024.0, 4096.0, 16384.0}) {
    const double v = bad_map_log2_union_bound(n, n * n, n * n, 5, 4.0);
    EXPECT_LT(v, prev) << "n=" << n;
    prev = v;
  }
}

TEST(Params, DeriveParamsProducesConsistentBundle) {
  const auto p = derive_params(256, 2.0, 1.0, 4.0);
  EXPECT_EQ(p.n, 256u);
  EXPECT_EQ(p.m, 65536u);
  EXPECT_EQ(p.n_modules, 65536u);
  EXPECT_EQ(p.c, 4u);
  EXPECT_EQ(p.r, 7u);
  EXPECT_EQ(p.cluster, p.r);
  EXPECT_NEAR(p.granularity, 7.0, 1e-9);
}

TEST(Params, DeriveParamsClampsModulesToVars) {
  // eps so large M would exceed m: clamp to m.
  const auto p = derive_params(64, 2.0, 3.0, 4.0);
  EXPECT_EQ(p.n_modules, p.m);
}

// ------------------------------------------------------- expansion ------

TEST(Expansion, GreedyNeverBeatsExactMinimum) {
  // The greedy adversary reports an upper bound on the true minimum
  // coverage; verify against the exact minimizer on tiny instances.
  TableMap map(64, 16, 5, 13);
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VarId> vars;
    const auto picks = rng.sample_without_replacement(64, 4);
    vars.reserve(picks.size());
    for (const auto p : picks) {
      vars.emplace_back(static_cast<std::uint32_t>(p));
    }
    const auto exact = exact_min_coverage(map, 3, vars);
    // Reconstruct greedy on the same exact set by running measure with
    // q = vars.size() many trials won't hit the same set; instead check
    // the invariant directly: exact <= any adversarial selection, and
    // exact >= 3 (one variable alone occupies >= c distinct modules... at
    // least ceil(c * 1 / something)). Minimal sanity: coverage >= c? No -
    // copies of distinct vars can overlap, but a single variable's c kept
    // copies are in c distinct modules, so exact >= c.
    EXPECT_GE(exact, 3u);
    EXPECT_LE(exact, 16u);
  }
}

TEST(Expansion, SingleVariableCoversExactlyC) {
  TableMap map(10, 32, 7, 5);
  const std::vector<VarId> vars = {VarId(3)};
  EXPECT_EQ(exact_min_coverage(map, 4, vars), 4u);
}

TEST(Expansion, MeasureReportsSaneBounds) {
  const auto params = derive_params(256, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 17);
  const std::uint64_t q = params.n / params.r;
  const auto res = measure_expansion(map, params.c, q, 20, 23);
  EXPECT_EQ(res.q, q);
  EXPECT_EQ(res.redundancy, params.r);
  // Coverage can't exceed the number of kept copies (c per var).
  EXPECT_LE(res.min_distinct, static_cast<std::uint64_t>(params.c) * q);
  EXPECT_GE(res.min_distinct, 1u);
  // Adversarial coverage <= random coverage (it is a minimizer).
  EXPECT_LE(res.min_distinct, res.min_distinct_random);
  EXPECT_GE(res.mean_distinct, static_cast<double>(res.min_distinct));
}

TEST(Expansion, Lemma2PropertyHoldsOnRandomMapAtPrescribedC) {
  // The paper's parameters must yield ratio >= 1 on sampled live sets:
  // this is the Lemma 2 reproduction in miniature (bench L2 scales it up).
  const auto params = derive_params(512, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 29);
  const std::uint64_t q = params.n / params.r;
  const auto res = measure_expansion(map, params.c, q, 30, 31);
  EXPECT_GE(res.ratio_vs_bound(params.b), 1.0)
      << "expansion property violated: " << res.min_distinct << " modules for q=" << q;
}

TEST(Expansion, AdversarialBatchDistinctVars) {
  TableMap map(4096, 64, 7, 3);
  const auto batch = adversarial_batch(map, 128, 5);
  ASSERT_EQ(batch.size(), 128u);
  std::set<std::uint32_t> vars;
  for (const auto v : batch) {
    ASSERT_LT(v.index(), 4096u);
    vars.insert(v.value());
  }
  EXPECT_EQ(vars.size(), 128u);
}

TEST(Expansion, AdversarialBatchConcentratesLoad) {
  // The adversarial batch should produce a hotter max module load than a
  // random batch of the same size.
  TableMap map(1 << 16, 256, 7, 77);
  const auto batch = adversarial_batch(map, 256, 5);
  util::Rng rng(6);
  const auto random_vars = rng.sample_without_replacement(1 << 16, 256);

  auto max_load = [&](const std::vector<VarId>& vars) {
    std::vector<std::uint32_t> load(256, 0);
    std::uint32_t best = 0;
    for (const auto v : vars) {
      for (const auto mod : map.copies(v)) {
        best = std::max(best, ++load[mod.index()]);
      }
    }
    return best;
  };
  std::vector<VarId> random_batch;
  random_batch.reserve(random_vars.size());
  for (const auto v : random_vars) {
    random_batch.emplace_back(static_cast<std::uint32_t>(v));
  }
  EXPECT_GE(max_load(batch), max_load(random_batch));
}

}  // namespace
}  // namespace pramsim::memmap
