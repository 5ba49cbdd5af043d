// Tests for the majority-rule protocol: copy store semantics, the
// two-stage scheduler, MajorityMemory consistency (including against an
// oracle under random operation streams), and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "majority/copy_store.hpp"
#include "majority/majority_memory.hpp"
#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "util/rng.hpp"

namespace pramsim::majority {
namespace {

using memmap::HashedMap;
using memmap::TableMap;
using pram::VarWrite;
using pram::Word;

// ------------------------------------------------------- copy store -----

TEST(CopyStore, FreshestPicksMaxStamp) {
  CopyStore store(4, 5);
  store.write(VarId(1), 0, 10, 3);
  store.write(VarId(1), 1, 20, 7);
  store.write(VarId(1), 2, 30, 5);
  const auto best = store.freshest(VarId(1), 0b111);
  EXPECT_EQ(best.value, 20);
  EXPECT_EQ(best.stamp, 7u);
  // Restricting the mask to copies {0,2} hides the stamp-7 copy.
  EXPECT_EQ(store.freshest(VarId(1), 0b101).value, 30);
}

TEST(CopyStore, GroundTruthSpansAllCopies) {
  CopyStore store(2, 3);
  store.write(VarId(0), 2, 99, 11);
  EXPECT_EQ(store.ground_truth(VarId(0)).value, 99);
}

TEST(CopyStore, CorruptKeepsStamp) {
  CopyStore store(2, 3);
  store.write(VarId(0), 0, 5, 2);
  store.corrupt(VarId(0), 0, 666);
  EXPECT_EQ(store.at(VarId(0), 0).value, 666);
  EXPECT_EQ(store.at(VarId(0), 0).stamp, 2u);
}

// ------------------------------------------- region-granular store -----

TEST(CopyStore, VoteRegionUnanimousDissentAndNoMajority) {
  CopyStore store(16, 5, 4);
  const std::uint64_t all = (1ULL << 5) - 1;
  // Region 1 = vars [4, 8). Write every copy of every var identically.
  for (std::uint32_t v = 4; v < 8; ++v) {
    for (std::uint32_t c = 0; c < 5; ++c) {
      store.write(VarId(v), c, 100 + v, 7);
    }
  }
  std::uint32_t dissenting = 99;
  EXPECT_EQ(store.vote_region(1, all, &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  // Early-exit flavor (no dissent pointer) agrees on the winner.
  EXPECT_EQ(store.vote_region(1, all), 0);

  // One copy dissents mid-region: still a 4-of-5 bytewise majority, and
  // the dissent count is exact.
  store.corrupt(VarId(6), 2, 31337);
  EXPECT_EQ(store.vote_region(1, all, &dissenting), 0);
  EXPECT_EQ(dissenting, 1u);
  // Masking the dissenter out restores unanimity among the live copies.
  EXPECT_EQ(store.vote_region(1, all & ~(1ULL << 2), &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  // Masking copy 0 out instead shifts the winner to the lowest live copy.
  EXPECT_EQ(store.vote_region(1, all & ~1ULL, &dissenting), 1);
  EXPECT_EQ(dissenting, 1u);

  // Three of five copies each diverge to a distinct value: the two
  // agreeing survivors are below the strict majority of 3, so no copy's
  // whole region wins and callers must fall back to per-word vote().
  store.corrupt(VarId(5), 0, 1111);
  store.corrupt(VarId(7), 1, 2222);
  EXPECT_EQ(store.vote_region(1, all, &dissenting),
            CopyStore::kNoRegionMajority);
  // No survivors at all is also no-majority, never a {0,0} winner.
  EXPECT_EQ(store.vote_region(1, 0), CopyStore::kNoRegionMajority);
}

TEST(CopyStore, VoteRegionUntouchedRegionIsUnanimousZero) {
  CopyStore store(16, 5, 4);
  std::uint32_t dissenting = 99;
  // Lowest live copy represents the all-{0,0} region; nothing allocates.
  EXPECT_EQ(store.vote_region(2, 0b11100, &dissenting), 2);
  EXPECT_EQ(dissenting, 0u);
  EXPECT_EQ(store.touched_vars(), 0u);
}

TEST(CopyStore, CopyRegionRepairsWholeSlice) {
  CopyStore store(16, 3, 4);
  for (std::uint32_t v = 8; v < 12; ++v) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      store.write(VarId(v), c, 500 + v, 9);
    }
  }
  store.corrupt(VarId(9), 2, 777);
  store.corrupt(VarId(11), 2, 888);
  const std::int32_t winner = store.vote_region(2, 0b111);
  ASSERT_EQ(winner, 0);
  store.copy_region(2, static_cast<std::uint32_t>(winner), 2);
  std::uint32_t dissenting = 99;
  EXPECT_EQ(store.vote_region(2, 0b111, &dissenting), 0);
  EXPECT_EQ(dissenting, 0u);
  EXPECT_EQ(store.at(VarId(9), 2).value, 509u);
  EXPECT_EQ(store.at(VarId(11), 2).stamp, 9u);
}

TEST(CopyStore, WidthOneAndWidthFourAgreeOnEveryQuery) {
  // Same write stream into a classic width-1 store and a width-4 store:
  // every per-word query (at / freshest / ground_truth / touched) must
  // agree — region granularity is storage layout, not semantics.
  CopyStore narrow(32, 3, 1);
  CopyStore wide(32, 3, 4);
  EXPECT_EQ(wide.num_regions(), 8u);
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const VarId var(static_cast<std::uint32_t>(rng.below(32)));
    const auto copy = static_cast<std::uint32_t>(rng.below(3));
    const auto value = static_cast<Word>(rng.below(1000));
    const std::uint64_t stamp = 1 + static_cast<std::uint64_t>(i) / 4;
    narrow.write(var, copy, value, stamp);
    wide.write(var, copy, value, stamp);
  }
  for (std::uint32_t v = 0; v < 32; ++v) {
    const VarId var(v);
    for (std::uint32_t c = 0; c < 3; ++c) {
      ASSERT_EQ(narrow.at(var, c).value, wide.at(var, c).value) << v;
      ASSERT_EQ(narrow.at(var, c).stamp, wide.at(var, c).stamp) << v;
    }
    EXPECT_EQ(narrow.freshest(var, 0b101).value,
              wide.freshest(var, 0b101).value);
    EXPECT_EQ(narrow.ground_truth(var).value, wide.ground_truth(var).value);
    EXPECT_EQ(narrow.ground_truth(var).stamp, wide.ground_truth(var).stamp);
  }
}

// ------------------------------------- paged store vs a reference -----

/// Scripted fault hooks with copy i on module i: `dead` kills modules by
/// bit, `stuck` pins copies of even entities to -7, and every fifth
/// (entity + copy + reroll) store commits a flipped word.
class ScriptedHooks final : public pram::FaultHooks {
 public:
  std::uint64_t dead = 0;
  std::uint64_t stuck = 0;

  [[nodiscard]] bool module_dead(ModuleId module,
                                 std::uint64_t /*step*/) const override {
    return ((dead >> module.index()) & 1) != 0;
  }
  [[nodiscard]] bool stuck_at(std::uint64_t entity, std::uint32_t copy,
                              std::uint64_t /*step*/,
                              Word& value) const override {
    if (((stuck >> copy) & 1) == 0 || entity % 2 != 0) {
      return false;
    }
    value = -7;
    return true;
  }
  [[nodiscard]] bool corrupt_write(std::uint64_t entity, std::uint32_t copy,
                                   std::uint64_t reroll,
                                   std::uint64_t /*step*/,
                                   Word& value) const override {
    if ((entity + copy + reroll) % 5 != 0) {
      return false;
    }
    value ^= 0x55;
    return true;
  }
};

/// The reference: an ordered map from region to its copy-major row,
/// materialized exactly when a store must materialize it.
struct ReferenceStore {
  std::uint64_t m;
  std::uint32_t r;
  std::uint32_t w;
  std::map<std::uint64_t, std::vector<Copy>> rows;

  std::vector<Copy>& row(std::uint64_t var) {
    return rows.try_emplace(var / w, std::size_t{r} * w).first->second;
  }
  [[nodiscard]] Copy at(std::uint64_t var, std::uint32_t copy) const {
    const auto it = rows.find(var / w);
    return it == rows.end() ? Copy{}
                            : it->second[std::size_t{copy} * w + var % w];
  }
  /// Copy `copy`'s slice of `region` ({0, 0} words past an absent row).
  [[nodiscard]] std::vector<Copy> slice(std::uint64_t region,
                                        std::uint32_t copy) const {
    const auto it = rows.find(region);
    if (it == rows.end()) {
      return std::vector<Copy>(w);
    }
    const auto first = it->second.begin() + std::size_t{copy} * w;
    return {first, first + w};
  }
};

std::pair<Word, std::uint64_t> key(const Copy& copy) {
  return {copy.value, copy.stamp};
}

/// The reference vote: the ballot with the most voters wins; ties go to
/// the fresher stamp, then to the smaller value.
CopyStore::VoteOutcome reference_vote(const ReferenceStore& ref,
                                      std::uint64_t var,
                                      const ScriptedHooks& hooks) {
  CopyStore::VoteOutcome out;
  std::map<std::pair<Word, std::uint64_t>, std::uint32_t> tally;
  for (std::uint32_t i = 0; i < ref.r; ++i) {
    if (hooks.module_dead(ModuleId(i), 0)) {
      ++out.erased;
      continue;
    }
    Copy ballot = ref.at(var, i);
    Word stuck = 0;
    if (hooks.stuck_at(var, i, 0, stuck)) {
      ballot.value = stuck;
    }
    ++tally[key(ballot)];
    ++out.survivors;
  }
  std::uint32_t best = 0;
  for (const auto& [ballot, count] : tally) {
    if (count > best ||
        (count == best && (ballot.second > out.winner.stamp ||
                           (ballot.second == out.winner.stamp &&
                            ballot.first < out.winner.value)))) {
      best = count;
      out.winner = Copy{ballot.first, ballot.second};
    }
  }
  out.dissenting = out.survivors - best;
  return out;
}

/// The reference region vote: the lowest live copy whose slice a strict
/// majority of the live slices equals, and the live copies that differ.
std::int32_t reference_vote_region(const ReferenceStore& ref,
                                   std::uint64_t region,
                                   std::uint64_t live_mask,
                                   std::uint32_t& dissenting) {
  dissenting = 0;
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < ref.r; ++i) {
    if (((live_mask >> i) & 1) != 0) {
      live.push_back(i);
    }
  }
  for (const std::uint32_t i : live) {
    const auto base = ref.slice(region, i);
    std::uint32_t matches = 0;
    for (const std::uint32_t j : live) {
      const auto other = ref.slice(region, j);
      matches += std::equal(base.begin(), base.end(), other.begin(),
                            [](const Copy& a, const Copy& b) {
                              return key(a) == key(b);
                            })
                     ? 1
                     : 0;
    }
    if (2 * matches > live.size()) {
      dissenting = static_cast<std::uint32_t>(live.size()) - matches;
      return static_cast<std::int32_t>(i);
    }
  }
  return CopyStore::kNoRegionMajority;
}

/// Every query of the paged store against the reference.
void expect_same_as_reference(const CopyStore& store,
                              const ReferenceStore& ref, util::Rng& rng,
                              ScriptedHooks& hooks) {
  const std::uint64_t all = (1ULL << ref.r) - 1;
  ASSERT_EQ(store.touched_vars(), ref.rows.size());
  hooks.dead = rng.below(all + 1);
  std::vector<ModuleId> modules;
  for (std::uint32_t i = 0; i < ref.r; ++i) {
    modules.emplace_back(i);
  }
  for (std::uint64_t v = 0; v < ref.m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ASSERT_EQ(store.touched(var), ref.rows.count(v / ref.w) == 1) << v;
    Copy fresh_ref;
    const std::uint64_t mask = 1 + rng.below(all);
    bool found = false;
    for (std::uint32_t c = 0; c < ref.r; ++c) {
      ASSERT_EQ(key(store.at(var, c)), key(ref.at(v, c))) << v << "/" << c;
      const Copy held = ref.at(v, c);
      if (((mask >> c) & 1) != 0 && (!found || held.stamp > fresh_ref.stamp)) {
        fresh_ref = held;
        found = true;
      }
    }
    ASSERT_EQ(key(store.freshest(var, mask)), key(fresh_ref)) << v;
    const auto vote = store.vote(var, modules, 0, hooks);
    const auto expected = reference_vote(ref, v, hooks);
    ASSERT_EQ(key(vote.winner), key(expected.winner)) << v;
    ASSERT_EQ(vote.survivors, expected.survivors) << v;
    ASSERT_EQ(vote.erased, expected.erased) << v;
    ASSERT_EQ(vote.dissenting, expected.dissenting) << v;
  }
  for (std::uint64_t region = 0; region < store.num_regions(); ++region) {
    const std::uint64_t live = rng.below(all + 1);
    std::uint32_t dissent = 99;
    std::uint32_t expected_dissent = 0;
    const std::int32_t winner =
        reference_vote_region(ref, region, live, expected_dissent);
    ASSERT_EQ(store.vote_region(region, live, &dissent), winner) << region;
    ASSERT_EQ(store.vote_region(region, live), winner) << region;
    if (winner != CopyStore::kNoRegionMajority) {
      ASSERT_EQ(dissent, expected_dissent) << region;
    }
    const bool materialized = ref.rows.count(region) == 1;
    for (std::uint32_t c = 0; c < ref.r; ++c) {
      const auto span = store.region_span(region, c);
      ASSERT_EQ(span.size(), materialized ? ref.w : 0) << region;
      const auto slice = ref.slice(region, c);
      for (std::size_t i = 0; i < span.size(); ++i) {
        ASSERT_EQ(key(span[i]), key(slice[i])) << region << "/" << c;
      }
    }
  }
  auto next = ref.rows.begin();
  store.for_each_row([&](std::uint64_t region, std::span<const Copy> row) {
    ASSERT_NE(next, ref.rows.end());
    ASSERT_EQ(region, next->first);
    ASSERT_EQ(row.size(), next->second.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(key(row[i]), key(next->second[i])) << region << "@" << i;
    }
    ++next;
  });
  ASSERT_EQ(next, ref.rows.end());
}

class PagedStoreTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>> {};

// One seeded operation stream against the store and the reference, at a
// memory size whose last page (and, for wide regions, last region) is
// partial, comparing every query after every operation.
TEST_P(PagedStoreTest, MatchesAnOrderedMapReferenceAfterEveryOperation) {
  const auto [w, r] = GetParam();
  const std::uint64_t m = 301;
  CopyStore store(m, r, w);
  ReferenceStore ref{m, r, w, {}};
  util::Rng rng(1000 + 10 * w + r);
  ScriptedHooks hooks;
  std::vector<ModuleId> modules;
  for (std::uint32_t i = 0; i < r; ++i) {
    modules.emplace_back(i);
  }
  const std::uint64_t all = (1ULL << r) - 1;
  std::uint64_t corrupt_ref = 0;
  std::uint64_t corrupt_store = 0;
  for (int op = 0; op < 300; ++op) {
    const std::uint64_t v = rng.below(m);
    const VarId var(static_cast<std::uint32_t>(v));
    const auto copy = static_cast<std::uint32_t>(rng.below(r));
    const auto value = static_cast<Word>(rng.below(3));
    const std::uint64_t stamp = rng.below(3);
    const std::uint64_t kind = rng.below(20);
    SCOPED_TRACE(::testing::Message() << "op " << op << " kind " << kind);
    if (kind < 6) {
      store.write(var, copy, value, stamp);
      ref.row(v)[std::size_t{copy} * w + v % w] = Copy{value, stamp};
    } else if (kind < 9) {
      store.ensure_row(var);
      store.write_prepared(var, copy, value, stamp);
      ref.row(v)[std::size_t{copy} * w + v % w] = Copy{value, stamp};
    } else if (kind < 14) {
      // Some or all modules dead; one time in three every one of them.
      hooks.dead = rng.below(3) == 0 ? all : rng.below(all + 1);
      hooks.stuck = 0;
      const std::uint64_t reroll = rng.below(10);
      const std::uint32_t dropped = store.store_all(
          var, modules, value, stamp, reroll, 0, hooks, corrupt_store);
      std::uint32_t expected_dropped = 0;
      for (std::uint32_t c = 0; c < r; ++c) {
        if (hooks.module_dead(ModuleId(c), 0)) {
          ++expected_dropped;
          continue;
        }
        Word committed = value;
        corrupt_ref += hooks.corrupt_write(v, c, reroll, 0, committed);
        ref.row(v)[std::size_t{c} * w + v % w] = Copy{committed, stamp};
      }
      ASSERT_EQ(dropped, expected_dropped);
      ASSERT_EQ(corrupt_store, corrupt_ref);
    } else if (kind < 16) {
      store.corrupt(var, copy, value + 10);
      ref.row(v)[std::size_t{copy} * w + v % w].value = value + 10;
    } else if (kind < 18) {
      const std::uint64_t region = v / w;
      const auto to = static_cast<std::uint32_t>(rng.below(r));
      store.copy_region(region, copy, to);
      const auto it = ref.rows.find(region);
      if (it != ref.rows.end()) {
        std::copy_n(it->second.begin() + std::size_t{copy} * w, w,
                    it->second.begin() + std::size_t{to} * w);
      }
    } else if (kind < 19) {
      std::vector<Copy> row(std::size_t{r} * w);
      for (auto& entry : row) {
        entry = Copy{static_cast<Word>(rng.below(3)), rng.below(3)};
      }
      store.restore_row(v / w, row);
      ref.rows[v / w] = row;
    } else {
      store.clear_rows();
      ref.rows.clear();
    }
    hooks.stuck = rng.below(all + 1);
    expect_same_as_reference(store, ref, rng, hooks);
    if (HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsTimesRedundancy, PagedStoreTest,
    ::testing::Combine(::testing::Values(1u, 4u, 64u),
                       ::testing::Values(3u, 5u, 7u)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

// A row whose page a written neighbour already allocated reads the
// initial copies; an all-dead store_all into it must not materialize it.
TEST(PagedStore, AllDeadStoreIntoASharedPageLeavesTheRowUntouched) {
  CopyStore store(64, 3);
  store.write(VarId(0), 0, 5, 1);
  ScriptedHooks hooks;
  hooks.dead = 0b111;
  const std::vector<ModuleId> modules = {ModuleId(0), ModuleId(1),
                                         ModuleId(2)};
  std::uint64_t corrupt = 0;
  EXPECT_EQ(store.store_all(VarId(1), modules, 9, 2, 2, 0, hooks, corrupt),
            3u);
  EXPECT_FALSE(store.touched(VarId(1)));
  EXPECT_TRUE(store.touched(VarId(0)));
  EXPECT_EQ(store.touched_vars(), 1u);
  EXPECT_EQ(key(store.at(VarId(1), 2)), key(Copy{}));
  EXPECT_TRUE(store.region_span(1, 0).empty());
  std::vector<std::uint64_t> walked;
  store.for_each_row(
      [&](std::uint64_t region, std::span<const Copy>) {
        walked.push_back(region);
      });
  EXPECT_EQ(walked, std::vector<std::uint64_t>{0});
}

// -------------------------------------------------------- scheduler -----

SchedulerConfig config_for(std::uint32_t c, std::uint32_t n) {
  SchedulerConfig cfg;
  cfg.c = c;
  cfg.cluster_size = 2 * c - 1;
  cfg.n_processors = n;
  return cfg;
}

/// One DMMPC schedule through the scratch-backed kernel
/// DmmpcEngine::run_step_into drives: the cluster protocol with the
/// first-claim round.
ScheduleResult schedule(const memmap::MemoryMap& map,
                        std::span<const VarRequest> requests,
                        const SchedulerConfig& config) {
  ClusterProtocol protocol;
  FirstClaimRound round;
  ScheduleResult result;
  protocol.run(map, requests, config, round, result);
  return result;
}

std::vector<VarRequest> distinct_requests(std::uint32_t count,
                                          std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto vars = rng.sample_without_replacement(m, count);
  std::vector<VarRequest> reqs;
  reqs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  return reqs;
}

TEST(Scheduler, EveryRequestReachesThreshold) {
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(64, params.m, 7);
  const auto result = schedule(map, reqs, config_for(params.c, 64));
  ASSERT_EQ(result.accessed_mask.size(), 64u);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              params.c);
  }
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GE(result.total_copy_accesses,
            static_cast<std::uint64_t>(params.c) * 64);
}

TEST(Scheduler, EmptyBatchIsFree) {
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto result =
      schedule(map, {}, config_for(params.c, 64));
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.total_copy_accesses, 0u);
}

TEST(Scheduler, SingleRequestTakesCRoundsWorstCaseOne) {
  // One variable, r copies in distinct modules: every round all unaccessed
  // copies are probed, each module serves its probe, so c accesses land in
  // round one.
  const auto params = memmap::derive_params(64, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const std::vector<VarRequest> reqs = {{VarId(3), ProcId(0)}};
  const auto result = schedule(map, reqs, config_for(params.c, 64));
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_GE(result.total_copy_accesses, params.c);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  const auto params = memmap::derive_params(128, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(128, params.m, 11);
  const auto a = schedule(map, reqs, config_for(params.c, 128));
  const auto b = schedule(map, reqs, config_for(params.c, 128));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.accessed_mask, b.accessed_mask);
  EXPECT_EQ(a.total_copy_accesses, b.total_copy_accesses);
}

TEST(Scheduler, AllAtOnceNeverSlower) {
  const auto params = memmap::derive_params(128, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  const auto reqs = distinct_requests(128, params.m, 13);
  auto cfg = config_for(params.c, 128);
  const auto clustered = schedule(map, reqs, cfg);
  cfg.all_at_once = true;
  const auto flat = schedule(map, reqs, cfg);
  EXPECT_LE(flat.rounds, clustered.rounds);
  for (const auto mask : flat.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
              params.c);
  }
}

TEST(Scheduler, Stage1LeavesBoundedLiveSet) {
  // The LPP stage-1 guarantee: at most n / (2c-1) live variables remain.
  // Our stage-1 length is stage1_turns * (2c-1) phases; verify the bound
  // holds empirically across seeds.
  const auto params = memmap::derive_params(256, 2.0, 1.0, 4.0);
  HashedMap map(params.m, params.n_modules, params.r, 5);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto reqs = distinct_requests(256, params.m, seed);
    const auto result = schedule(map, reqs, config_for(params.c, 256));
    EXPECT_LE(result.live_after_stage1, 256u / params.r + 1)
        << "seed " << seed;
  }
}

TEST(Scheduler, HotModuleMapStillCompletes) {
  // Adversarially terrible map: tiny module count forces serialization but
  // the protocol must still terminate with every request satisfied.
  TableMap map(64, /*modules=*/5, /*r=*/5, 3);
  std::vector<VarRequest> reqs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    reqs.push_back({VarId(i), ProcId(i)});
  }
  SchedulerConfig cfg;
  cfg.c = 3;
  cfg.cluster_size = 5;
  cfg.n_processors = 32;
  const auto result = schedule(map, reqs, cfg);
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(__builtin_popcountll(mask), 3);
  }
  // 32 requests x 3 accesses through 5 unit-bandwidth modules needs at
  // least ceil(96/5) rounds.
  EXPECT_GE(result.rounds, 96u / 5u);
}

TEST(Scheduler, RoundsGrowSublinearlyInN) {
  // Theorem 2 in miniature: rounds should scale ~log n, certainly far
  // sublinearly.
  const double b = 4.0;
  std::vector<double> rounds;
  for (const std::uint32_t n : {64u, 256u, 1024u}) {
    const auto params = memmap::derive_params(n, 2.0, 1.0, b);
    HashedMap map(params.m, params.n_modules, params.r, 5);
    const auto reqs = distinct_requests(n, params.m, 17);
    const auto result = schedule(map, reqs, config_for(params.c, n));
    rounds.push_back(static_cast<double>(result.rounds));
  }
  EXPECT_LT(rounds[2], rounds[0] * 16.0);  // 16x n -> far less than 16x time
}

// ------------------------------------------- schedule fingerprints -----
//
// Golden fingerprints pin the DMMPC schedule bit for bit: the
// scratch-backed DmmpcEngine::run_step_into (first-claim resolution, the
// schedule every DMMPC-round engine serves). Each case folds every
// observable field of a short sequence of batches served by ONE engine,
// so stale per-engine scratch shows up too. The constants were recorded
// with the hash-map round implementation that preceded the shared
// cluster-protocol driver.

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

std::uint64_t fold_schedule(std::uint64_t h, std::uint64_t time,
                            std::uint64_t work, std::uint64_t stage1,
                            std::uint64_t stage2,
                            std::uint64_t live_after_stage1,
                            std::uint64_t max_queue,
                            const std::vector<std::uint64_t>& live,
                            const std::vector<std::uint64_t>& masks) {
  for (const std::uint64_t v :
       {time, work, stage1, stage2, live_after_stage1, max_queue}) {
    h = fold(h, v);
  }
  h = fold(h, live.size());
  for (const std::uint64_t v : live) {
    h = fold(h, v);
  }
  h = fold(h, masks.size());
  for (const std::uint64_t v : masks) {
    h = fold(h, v);
  }
  return h;
}

enum class BatchShape : std::uint8_t {
  kDistinct,            ///< requester i for request i
  kSharedRequesters,    ///< pairs of requests share one requester id
  kRequestersPastN,     ///< every requester >= n: stage 2 only
  kEmpty,
};

std::vector<VarRequest> shaped_batch(BatchShape shape, std::uint32_t count,
                                     std::uint64_t m, std::uint32_t n,
                                     std::uint64_t seed) {
  if (shape == BatchShape::kEmpty) {
    return {};
  }
  auto reqs = distinct_requests(count, m, seed);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (shape == BatchShape::kSharedRequesters) {
      reqs[i].requester = ProcId(i / 2);
    } else if (shape == BatchShape::kRequestersPastN) {
      reqs[i].requester = ProcId(n + i);
    }
  }
  return reqs;
}

struct FingerprintCase {
  const char* name;
  std::uint64_t m;
  std::uint32_t modules;
  std::uint32_t c;
  std::uint32_t n;
  std::uint32_t stage1_turns;
  bool all_at_once;
  BatchShape shape;
  std::uint64_t want_run_step_into;
};

class ScheduleFingerprintTest
    : public ::testing::TestWithParam<FingerprintCase> {};

TEST_P(ScheduleFingerprintTest, RunStepIntoMatchesTheGoldenSchedule) {
  const FingerprintCase& fc = GetParam();
  auto map = std::make_shared<HashedMap>(fc.m, fc.modules, 2 * fc.c - 1,
                                         /*seed=*/17);
  SchedulerConfig cfg = config_for(fc.c, fc.n);
  cfg.stage1_turns = fc.stage1_turns;
  cfg.all_at_once = fc.all_at_once;
  DmmpcEngine engine(map, cfg);
  EngineResult out;
  std::uint64_t into = 0;
  // Full, third-size and full again: the scratch shrinks and regrows.
  const std::uint32_t sizes[] = {fc.n, fc.n / 3, fc.n};
  for (std::uint64_t b = 0; b < 3; ++b) {
    const auto reqs = shaped_batch(fc.shape, sizes[b], fc.m, fc.n, 100 + b);
    engine.run_step_into(reqs, out);
    for (const auto mask : out.accessed_mask) {
      ASSERT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)), fc.c);
    }
    into = fold_schedule(into, out.time, out.work, out.stats.stage1_phases,
                         out.stats.stage2_phases,
                         out.stats.live_after_stage1, out.stats.max_queue,
                         out.stats.live_per_phase, out.accessed_mask);
  }
  EXPECT_EQ(into, fc.want_run_step_into) << std::hex << into;
}

// serve_dmmpc's map (n = 4096, m = n^1.5, M = m, r = 5) and
// durable_faults' map (n = 1024, m = M = n^2, r = 7), both at the
// benchmark's scheme seed.
constexpr std::uint64_t kServeM = 262144;
constexpr std::uint64_t kDurableM = 1048576;

INSTANTIATE_TEST_SUITE_P(
    Golden, ScheduleFingerprintTest,
    ::testing::Values(
        FingerprintCase{"serve_dmmpc", kServeM, kServeM, 3, 4096, 2, false,
                        BatchShape::kDistinct,
                        0xa6a036fc353bbf13ULL},
        FingerprintCase{"durable_faults", kDurableM, kDurableM, 4, 1024, 2,
                        false, BatchShape::kDistinct,
                        0x920160571912c69eULL},
        FingerprintCase{"contended", kServeM, 4096, 3, 4096, 2, false,
                        BatchShape::kDistinct,
                        0x2fbc6fd615dae521ULL},
        FingerprintCase{"one_stage1_turn", kServeM, 4096, 3, 4096, 1, false,
                        BatchShape::kDistinct,
                        0x6131ffba4874be2dULL},
        FingerprintCase{"all_at_once", kServeM, kServeM, 3, 4096, 2, true,
                        BatchShape::kDistinct,
                        0x15ac105791d62321ULL},
        FingerprintCase{"shared_requesters", kServeM, kServeM, 3, 4096, 2,
                        false, BatchShape::kSharedRequesters,
                        0x8dc364f0151d5595ULL},
        FingerprintCase{"requesters_past_n", kServeM, kServeM, 3, 4096, 2,
                        false, BatchShape::kRequestersPastN,
                        0xba9bfdf974c4cc59ULL},
        FingerprintCase{"hot_modules", 4096, 64, 3, 1024, 2, false,
                        BatchShape::kDistinct,
                        0xa8231f43b481833fULL},
        FingerprintCase{"empty", kServeM, kServeM, 3, 4096, 2, false,
                        BatchShape::kEmpty,
                        0x128408c4d9f41432ULL}),
    [](const ::testing::TestParamInfo<FingerprintCase>& info) {
      return std::string(info.param.name);
    });

// -------------------------------------------------- majority memory -----

std::unique_ptr<MajorityMemory> make_memory(std::uint32_t n, double eps,
                                            std::uint64_t seed) {
  const auto params = memmap::derive_params(n, 2.0, eps, 4.0);
  auto map = std::make_shared<HashedMap>(params.m, params.n_modules, params.r,
                                         seed);
  SchedulerConfig cfg;
  cfg.c = params.c;
  cfg.cluster_size = params.cluster;
  cfg.n_processors = n;
  return std::make_unique<MajorityMemory>(std::move(map), cfg);
}

TEST(MajorityMemory, ReadYourWrite) {
  auto mem = make_memory(64, 1.0, 3);
  const VarWrite writes[] = {{VarId(7), 1234}};
  mem->step({}, {}, writes);
  const VarId reads[] = {VarId(7)};
  Word values[1];
  mem->step(reads, values, {});
  EXPECT_EQ(values[0], 1234);
}

TEST(MajorityMemory, ReadsSeePreStepValues) {
  auto mem = make_memory(64, 1.0, 3);
  mem->poke(VarId(5), 100);
  const VarId reads[] = {VarId(5)};
  Word values[1];
  const VarWrite writes[] = {{VarId(5), 200}};
  mem->step(reads, values, writes);
  EXPECT_EQ(values[0], 100);
  EXPECT_EQ(mem->peek(VarId(5)), 200);
}

TEST(MajorityMemory, OracleConsistencyUnderRandomStream) {
  // Property test: 200 steps of random reads/writes must match a flat
  // reference memory exactly.
  auto mem = make_memory(64, 1.0, 9);
  const std::uint64_t m = mem->size();
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(21);
  for (int step = 0; step < 200; ++step) {
    // Build distinct read and write sets (a var may appear in both).
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    const auto n_reads = rng.below(16);
    const auto n_writes = rng.below(16);
    for (std::uint64_t i = 0; i < n_reads; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    for (std::uint64_t i = 0; i < n_writes; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(m)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1'000'000))});
    }
    std::vector<Word> values(reads.size());
    mem->step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      const Word expected = it == oracle.end() ? 0 : it->second;
      ASSERT_EQ(values[i], expected)
          << "step " << step << " var " << reads[i].value();
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

TEST(MajorityMemory, ToleratesStaleMinorityCorruption) {
  // Fault model the majority rule tolerates: copies that the last write
  // did NOT update (their stamps are stale) may hold arbitrary garbage.
  // Reads access >= c copies, which must intersect the >= c
  // freshly-stamped ones, and the freshest stamp wins — so corrupted
  // stale values can never surface.
  auto mem = make_memory(64, 1.0, 13);
  const auto r = mem->map().redundancy();
  const VarWrite writes[] = {{VarId(3), 4242}};
  mem->step({}, {}, writes);
  const auto& store = mem->store();
  std::uint64_t max_stamp = 0;
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    max_stamp = std::max(max_stamp, store.at(VarId(3), copy).stamp);
  }
  int corrupted = 0;
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    if (store.at(VarId(3), copy).stamp < max_stamp) {
      mem->mutable_store().corrupt(VarId(3), copy, -999);
      ++corrupted;
    }
  }
  // The write updated >= c of 2c-1 copies, so at most c-1 were stale.
  EXPECT_LE(corrupted, static_cast<int>((r + 1) / 2) - 1);
  const VarId reads[] = {VarId(3)};
  Word values[1];
  mem->step(reads, values, {});
  EXPECT_EQ(values[0], 4242);
}

TEST(MajorityMemory, MajorityIntersectionHoldsByConstruction) {
  // Structural check of the 2c-1 invariant: any two c-subsets intersect.
  for (std::uint32_t c = 1; c <= 8; ++c) {
    const std::uint32_t r = 2 * c - 1;
    // The heaviest c-subset and lightest c-subset must share an index.
    std::set<std::uint32_t> low;
    std::set<std::uint32_t> high;
    for (std::uint32_t i = 0; i < c; ++i) {
      low.insert(i);
      high.insert(r - 1 - i);
    }
    std::vector<std::uint32_t> intersection;
    std::set_intersection(low.begin(), low.end(), high.begin(), high.end(),
                          std::back_inserter(intersection));
    EXPECT_FALSE(intersection.empty()) << "c=" << c;
  }
}

TEST(MajorityMemory, CostReflectsContention) {
  auto mem = make_memory(64, 1.0, 15);
  // A batch of 64 distinct vars costs more rounds than a single var.
  util::Rng rng(5);
  const auto vars = rng.sample_without_replacement(mem->size(), 64);
  std::vector<VarId> reads;
  reads.reserve(64);
  for (const auto v : vars) {
    reads.emplace_back(static_cast<std::uint32_t>(v));
  }
  std::vector<Word> values(64);
  const auto big = mem->step(reads, values, {});
  const VarId one[] = {VarId(0)};
  Word val[1];
  const auto small = mem->step(one, val, {});
  EXPECT_GT(big.time, small.time);
  EXPECT_GT(big.work, small.work);
}

// -------------------------------------------- end-to-end with P-RAM -----

TEST(MajorityMemory, RunsPrefixSumIdenticallyToIdealPram) {
  // The integration the paper is about: a real P-RAM program executing on
  // the replicated memory must produce the exact ideal result.
  const std::uint32_t n = 32;
  auto spec = pram::programs::prefix_sum(n);
  auto spec2 = pram::programs::prefix_sum(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  // Ideal machine.
  pram::Machine ideal(cfg, std::move(spec.program));
  // Simulated machine: majority memory sized to the program footprint.
  const auto params = memmap::derive_params(n, 2.0, 1.0, 4.0);
  auto map = std::make_shared<HashedMap>(
      std::max<std::uint64_t>(params.m, spec2.m_required), params.n_modules,
      params.r, 33);
  SchedulerConfig scfg;
  scfg.c = params.c;
  scfg.cluster_size = params.cluster;
  scfg.n_processors = n;
  pram::Machine simulated(cfg, std::move(spec2.program),
                          std::make_unique<MajorityMemory>(map, scfg));

  util::Rng rng(77);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<Word>(rng.below(1000));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  const auto out_ideal = ideal.run();
  const auto out_sim = simulated.run();
  ASSERT_TRUE(out_ideal.completed());
  ASSERT_TRUE(out_sim.completed());
  EXPECT_EQ(out_ideal.steps, out_sim.steps);
  // The simulated machine pays >1 round for contended steps.
  EXPECT_GE(out_sim.mem_time, out_ideal.mem_time);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i))) << i;
  }
}

}  // namespace
}  // namespace pramsim::majority
