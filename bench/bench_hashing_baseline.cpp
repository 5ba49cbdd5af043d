// Experiment P1: the probabilistic contrast (Mehlhorn-Vishkin 1984).
//
// One hashed copy per variable over M = n modules: expected max module
// load for a random step is Theta(log n / log log n) (balls in bins), but
// an adversary who knows the hash forces full serialization — the
// qualitative gap to the paper's deterministic worst-case guarantee.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "hashing/mv_memory.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace pramsim;

int main() {
  bench::Reporter reporter(
      "P1", "probabilistic baseline (MV'84, §1/§2 context)",
      "hashing achieves r = 1 and O(log n/loglog n) expected "
      "congestion, but only deterministic schemes bound the "
      "worst case");

  util::Table table({"n", "mean max-load", "p99-ish (max of 30)",
                     "adversarial load (2^20-var scan)",
                     "HP-DMMPC rounds (det. worst)"});
  table.set_title("per-step module congestion, M = n modules, r = 1 hash");

  std::vector<double> ns;
  std::vector<double> means;
  for (const std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    const std::uint64_t m = static_cast<std::uint64_t>(n) * n;
    hashing::MvMemory memory(m, {.n_modules = n, .seed = 5});
    util::Rng rng(13);
    util::RunningStats loads;
    for (int trial = 0; trial < 30; ++trial) {
      const auto vars = rng.sample_without_replacement(m, n);
      std::vector<VarId> reads;
      reads.reserve(n);
      for (const auto v : vars) {
        reads.emplace_back(static_cast<std::uint32_t>(v));
      }
      std::vector<pram::Word> values(reads.size());
      loads.add(static_cast<double>(memory.step(reads, values, {}).time));
    }

    // Adversarial batch: fill one module's preimage.
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_module;
    for (std::uint32_t v = 0; v < std::min<std::uint64_t>(m, 1 << 20); ++v) {
      by_module[memory.module_of(VarId(v))].push_back(v);
    }
    std::size_t hottest = 0;
    for (const auto& [mod, vars2] : by_module) {
      (void)mod;
      hottest = std::max(hottest, vars2.size());
    }
    const double adversarial =
        static_cast<double>(std::min<std::size_t>(hottest, n));

    // Deterministic comparison point.
    core::SimulationPipeline hp({.kind = core::SchemeKind::kDmmpc, .n = n});
    const auto det = hp.run_stress({.steps_per_family = 2, .seed = 3});

    ns.push_back(n);
    means.push_back(loads.mean());
    table.add_row({static_cast<std::int64_t>(n), loads.mean(), loads.max(),
                   adversarial, det.time.max()});
  }
  reporter.table(table, 2);
  std::printf("\n");
  reporter.fit("MV mean max-load", ns, means, "log n");
  std::printf(
      "(log n and log n/loglog n are within the menu's resolution at these\n"
      "n; the point is the contrast columns: random traffic behaves, the\n"
      "known-hash adversary forces ~n serialization, while the\n"
      "deterministic scheme's WORST case stays constant-ish.)\n");

  // Rehashing cost visibility.
  {
    util::Table rehash_table({"threshold", "steps", "rehashes"});
    rehash_table.set_title("rehash-on-overload policy (n = 1024)");
    for (const std::uint32_t threshold : {3u, 4u, 6u}) {
      const std::uint32_t n = 1024;
      const std::uint64_t m = static_cast<std::uint64_t>(n) * n;
      hashing::MvMemory memory(
          m, {.n_modules = n, .seed = 5, .rehash_threshold = threshold});
      util::Rng rng(13);
      for (int s = 0; s < 50; ++s) {
        const auto vars = rng.sample_without_replacement(m, n);
        std::vector<VarId> reads;
        for (const auto v : vars) {
          reads.emplace_back(static_cast<std::uint32_t>(v));
        }
        std::vector<pram::Word> values(reads.size());
        memory.step(reads, values, {});
      }
      rehash_table.add_row({static_cast<std::int64_t>(threshold),
                            static_cast<std::int64_t>(50),
                            static_cast<std::int64_t>(memory.rehashes())});
    }
    reporter.table(rehash_table, 0);
    std::printf(
        "Tight thresholds trigger frequent (expensive) migrations — the\n"
        "hidden cost of chasing deterministic-like guarantees with hashing.\n");
  }
  return 0;
}
