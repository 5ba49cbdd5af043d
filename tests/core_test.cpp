// Tests for the scheme factory, the 2DMOT engine, the trace driver, and
// cross-scheme end-to-end equivalence: the same P-RAM programs must
// produce bit-identical results on the ideal machine and on every
// simulating machine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/driver.hpp"
#include "core/mot_engine.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::core {
namespace {

using majority::VarRequest;

std::vector<VarRequest> distinct_requests(std::uint32_t count, std::uint64_t m,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const auto vars = rng.sample_without_replacement(m, count);
  std::vector<VarRequest> reqs;
  reqs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
  }
  return reqs;
}

// --------------------------------------------------------- factory ------

TEST(Schemes, HpMotGeometryAndConstantRedundancy) {
  for (const std::uint32_t n : {16u, 64u, 256u}) {
    const auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = n});
    EXPECT_EQ(inst.n_modules, n * n) << n;       // side = n at eps = 1
    EXPECT_EQ(inst.r, 7u) << n;                  // constant in n
    EXPECT_NEAR(inst.eps_effective, 1.0, 1e-9);
    EXPECT_GT(inst.switches, 0u);
    // O(M) switches: 2M-ish.
    EXPECT_LT(inst.switches, 2ull * inst.n_modules);
    EXPECT_EQ(inst.request_hops, 3u * static_cast<std::uint32_t>(util::ilog2_ceil(n)) + 1);
  }
}

TEST(Schemes, UwMpcRedundancyGrowsWithN) {
  const auto small = make_scheme({.kind = SchemeKind::kUwMpc, .n = 64});
  const auto large = make_scheme({.kind = SchemeKind::kUwMpc, .n = 4096});
  EXPECT_GT(large.r, small.r);
  EXPECT_EQ(small.n_modules, 64u);  // M = n: the MPC constraint
  EXPECT_EQ(large.n_modules, 4096u);
}

TEST(Schemes, LppUsesLogRedundancyOnNModules) {
  const auto inst = make_scheme({.kind = SchemeKind::kLppMot, .n = 64});
  EXPECT_EQ(inst.n_modules, 64u);
  EXPECT_GT(inst.r, 7u);  // log-ish redundancy at m = 4096
  EXPECT_GT(inst.switches, 0u);
}

TEST(Schemes, CrossbarPaysSwitchesForGranularity) {
  const auto hp = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  const auto xbar = make_scheme({.kind = SchemeKind::kCrossbar, .n = 64});
  EXPECT_EQ(xbar.r, hp.r);              // same constant redundancy
  EXPECT_GT(xbar.switches, hp.switches);  // O(nM) vs O(M)
}

TEST(Schemes, DmmpcHonorsEpsilon) {
  const auto coarse =
      make_scheme({.kind = SchemeKind::kDmmpc, .n = 256, .eps = 0.5});
  const auto fine =
      make_scheme({.kind = SchemeKind::kDmmpc, .n = 256, .eps = 1.5});
  EXPECT_LT(coarse.n_modules, fine.n_modules);
  EXPECT_GE(coarse.r, fine.r);  // finer granularity => no more copies
}

// ------------------------------------------------------- MOT engine -----

TEST(MotEngine, EveryRequestReachesThreshold) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 32});
  const auto reqs = distinct_requests(32, inst.m, 3);
  const auto result = inst.engine->run_step(reqs);
  ASSERT_EQ(result.accessed_mask.size(), reqs.size());
  for (const auto mask : result.accessed_mask) {
    EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)), inst.c);
  }
  EXPECT_GT(result.time, 0u);
  EXPECT_GE(result.work, static_cast<std::uint64_t>(inst.c) * reqs.size());
}

TEST(MotEngine, TimeAtLeastOneRoundTrip) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 32});
  const std::vector<VarRequest> reqs = {{VarId(5), ProcId(0)}};
  const auto result = inst.engine->run_step(reqs);
  EXPECT_GE(result.time, 2 * inst.request_hops - 1);
}

TEST(MotEngine, DeterministicAcrossRuns) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  const auto reqs = distinct_requests(64, inst.m, 7);
  const auto a = inst.engine->run_step(reqs);
  const auto b = inst.engine->run_step(reqs);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.accessed_mask, b.accessed_mask);
}

TEST(MotEngine, EmptyStepIsFree) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 16});
  const auto result = inst.engine->run_step({});
  EXPECT_EQ(result.time, 0u);
  EXPECT_EQ(result.work, 0u);
}

TEST(MotEngine, LcaTurnaroundNoSlowerOnAverage) {
  const auto reqs_seed = 9;
  auto via_root = make_scheme({.kind = SchemeKind::kHpMot, .n = 64});
  auto via_lca = make_scheme(
      {.kind = SchemeKind::kHpMot, .n = 64, .lca_turnaround = true});
  const auto reqs = distinct_requests(64, via_root.m, reqs_seed);
  const auto t_root = via_root.engine->run_step(reqs).time;
  const auto t_lca = via_lca.engine->run_step(reqs).time;
  EXPECT_LE(t_lca, t_root + t_root / 4);  // allow scheduling noise
}

TEST(MotEngine, AllThreeSchemesComplete) {
  for (const auto kind :
       {SchemeKind::kHpMot, SchemeKind::kLppMot, SchemeKind::kCrossbar}) {
    auto inst = make_scheme({.kind = kind, .n = 16});
    const auto reqs = distinct_requests(16, inst.m, 11);
    const auto result = inst.engine->run_step(reqs);
    for (const auto mask : result.accessed_mask) {
      EXPECT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
                inst.c)
          << to_string(kind);
    }
  }
}

TEST(MotEngine, Stage1BoundsLiveSet) {
  auto inst = make_scheme({.kind = SchemeKind::kHpMot, .n = 128});
  const auto reqs = distinct_requests(128, inst.m, 13);
  const auto result = inst.engine->run_step(reqs);
  EXPECT_LE(result.stats.live_after_stage1, 128u / inst.r + 1);
}

// Golden fingerprints pin MotEngine::run_step bit for bit on every
// placement and protocol option. Each case folds every observable field
// of one engine serving a fixed batch sequence (full, shared requester
// ids, empty, full); the constants were recorded with the router's
// hash-map claim table and the engine's own copy of the cluster protocol,
// which the shared driver replaced.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

struct MotFingerprintCase {
  const char* name;
  SchemeSpec spec;
  std::uint64_t want;
};

class MotScheduleFingerprintTest
    : public ::testing::TestWithParam<MotFingerprintCase> {};

TEST_P(MotScheduleFingerprintTest, RunStepMatchesTheGoldenSchedule) {
  const MotFingerprintCase& fc = GetParam();
  SchemeSpec spec = fc.spec;
  spec.seed = 17;
  auto inst = make_scheme(spec);
  const std::uint32_t n = spec.n;
  std::uint64_t h = 0;
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto reqs = b == 2 ? std::vector<VarRequest>{}
                       : distinct_requests(b == 1 ? n / 2 : n, inst.m, 40 + b);
    if (b == 1) {
      for (std::uint32_t i = 0; i < reqs.size(); ++i) {
        reqs[i].requester = ProcId(i / 2);
      }
    }
    const auto result = inst.engine->run_step(reqs);
    for (const auto mask : result.accessed_mask) {
      ASSERT_GE(static_cast<std::uint32_t>(__builtin_popcountll(mask)),
                inst.c);
    }
    for (const std::uint64_t v :
         {result.time, result.work, result.stats.phases,
          result.stats.stage1_phases, result.stats.stage2_phases,
          result.stats.live_after_stage1, result.stats.max_queue}) {
      h = fold(h, v);
    }
    h = fold(h, result.stats.live_per_phase.size());
    for (const auto v : result.stats.live_per_phase) {
      h = fold(h, v);
    }
    h = fold(h, result.accessed_mask.size());
    for (const auto v : result.accessed_mask) {
      h = fold(h, v);
    }
  }
  EXPECT_EQ(h, fc.want) << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, MotScheduleFingerprintTest,
    ::testing::Values(
        MotFingerprintCase{"hp_sort_size",
                           {.kind = SchemeKind::kHpMot, .n = 1024},
                           0x61d79c299f5f19faULL},
        MotFingerprintCase{"hp_lca_turnaround",
                           {.kind = SchemeKind::kHpMot,
                            .n = 64,
                            .lca_turnaround = true},
                           0x4f8d39e18c5ab770ULL},
        MotFingerprintCase{"hp_prom_lookup",
                           {.kind = SchemeKind::kHpMot,
                            .n = 64,
                            .prom_lookup = true},
                           0x2b2eb63e26cbd3dcULL},
        MotFingerprintCase{"lpp_roots",
                           {.kind = SchemeKind::kLppMot, .n = 64},
                           0xbfce3ff08a8c40acULL},
        MotFingerprintCase{"crossbar",
                           {.kind = SchemeKind::kCrossbar, .n = 64},
                           0x8195842d9f2ae121ULL}),
    [](const ::testing::TestParamInfo<MotFingerprintCase>& info) {
      return std::string(info.param.name);
    });

// Golden fingerprints pin what pram::Machine reports through every
// SchemeKind, bare at widths 1 and 8 and, for kDmmpc and kIda, behind a
// cache and behind dynamic module kills with write corruption. Each case
// runs a randomized EREW program and a bitonic sort and folds every
// step's memory cost, the memory's reliability counters and the final
// shared memory. The constants were recorded when Machine still served
// its steps through the per-scheme step() bodies.
enum class MachineWrap : std::uint8_t { kPlain, kCached, kFaulted };

struct MachineFingerprintCase {
  const char* name;
  SchemeSpec spec;
  MachineWrap wrap;
  std::uint64_t want;
};

class MachineFingerprint
    : public ::testing::TestWithParam<MachineFingerprintCase> {};

constexpr std::uint32_t kMachineProcessors = 16;

std::uint64_t fold_machine_run(const MachineFingerprintCase& fc,
                               pram::programs::ProgramSpec program,
                               std::uint64_t init_seed, std::uint64_t h) {
  const std::uint32_t n = kMachineProcessors;
  SchemeSpec spec = fc.spec;
  spec.n = n;
  spec.seed = 17;
  spec.min_vars = program.m_required;
  if (fc.wrap == MachineWrap::kCached) {
    spec.cache_lines = 24;
  }
  std::unique_ptr<pram::MemorySystem> memory = make_memory(spec);
  if (fc.wrap == MachineWrap::kFaulted) {
    memory = std::make_unique<faults::FaultableMemory>(
        std::move(memory), faults::FaultSpec{.seed = 29,
                                             .module_kill_rate = 0.3,
                                             .corruption_rate = 0.02,
                                             .onset_min = 1,
                                             .onset_max = 20});
  }
  pram::Machine machine({.n_processors = n,
                         .m_shared_cells = program.m_required,
                         .policy = pram::ConflictPolicy::kErew},
                        std::move(program.program), std::move(memory));
  util::Rng init(init_seed);
  for (std::uint64_t i = 0; i < program.m_required; ++i) {
    machine.poke_shared(VarId(static_cast<std::uint32_t>(i)),
                        static_cast<pram::Word>(init.below(1000)));
  }
  for (std::uint32_t step = 0; step < 10'000 && !machine.all_halted();
       ++step) {
    const pram::StepOutcome outcome = machine.step();
    EXPECT_EQ(outcome.status, pram::StepStatus::kOk);
    if (outcome.status != pram::StepStatus::kOk) {
      return h;
    }
    for (const std::uint64_t v :
         {outcome.mem_cost.time, outcome.mem_cost.work,
          outcome.mem_cost.live_after_stage1, outcome.mem_cost.max_queue}) {
      h = fold(h, v);
    }
  }
  EXPECT_TRUE(machine.all_halted());
  h = fold(h, machine.steps_executed());
  const pram::ReliabilityStats rel = machine.memory().reliability();
  for (const std::uint64_t v :
       {rel.reads_served, rel.faults_masked, rel.uncorrectable,
        rel.erasures_skipped, rel.units_faulty, rel.writes_dropped,
        rel.corrupt_stores, rel.wrong_reads, rel.shares_short,
        rel.units_repaired, rel.units_relocated}) {
    h = fold(h, v);
  }
  for (std::uint64_t i = 0; i < machine.config().m_shared_cells; ++i) {
    h = fold(h, static_cast<std::uint64_t>(
                    machine.shared(VarId(static_cast<std::uint32_t>(i)))));
  }
  return h;
}

TEST_P(MachineFingerprint, MachineRunMatchesTheGoldenRecord) {
  const MachineFingerprintCase& fc = GetParam();
  std::uint64_t h = 0;
  h = fold_machine_run(
      fc, pram::programs::random_exclusive(kMachineProcessors, 12, 11), 977,
      h);
  h = fold_machine_run(fc, pram::programs::bitonic_sort(kMachineProcessors),
                       4242, h);
  EXPECT_EQ(h, fc.want) << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, MachineFingerprint,
    ::testing::Values(
        MachineFingerprintCase{"hp_mot_w1", {.kind = SchemeKind::kHpMot},
                               MachineWrap::kPlain,
                               0x35e3e83fd11f3493ULL},
        MachineFingerprintCase{"hp_mot_w8",
                               {.kind = SchemeKind::kHpMot,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x35e3e83fd11f3493ULL},
        MachineFingerprintCase{"crossbar_w1",
                               {.kind = SchemeKind::kCrossbar},
                               MachineWrap::kPlain,
                               0x942ac1006c5ff4dbULL},
        MachineFingerprintCase{"crossbar_w8",
                               {.kind = SchemeKind::kCrossbar,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x942ac1006c5ff4dbULL},
        MachineFingerprintCase{"lpp_mot_w1", {.kind = SchemeKind::kLppMot},
                               MachineWrap::kPlain,
                               0x834ca195bc83888bULL},
        MachineFingerprintCase{"lpp_mot_w8",
                               {.kind = SchemeKind::kLppMot,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x834ca195bc83888bULL},
        MachineFingerprintCase{"dmmpc_w1", {.kind = SchemeKind::kDmmpc},
                               MachineWrap::kPlain,
                               0x2d8d46fedff5d29fULL},
        MachineFingerprintCase{"dmmpc_w8",
                               {.kind = SchemeKind::kDmmpc,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x2d8d46fedff5d29fULL},
        MachineFingerprintCase{"uw_mpc_w1", {.kind = SchemeKind::kUwMpc},
                               MachineWrap::kPlain,
                               0x5a4a7d9e3a4816c1ULL},
        MachineFingerprintCase{"uw_mpc_w8",
                               {.kind = SchemeKind::kUwMpc,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x5a4a7d9e3a4816c1ULL},
        MachineFingerprintCase{"alt_bdn_w1", {.kind = SchemeKind::kAltBdn},
                               MachineWrap::kPlain,
                               0xe4dd84792d8f4818ULL},
        MachineFingerprintCase{"alt_bdn_w8",
                               {.kind = SchemeKind::kAltBdn,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0xe4dd84792d8f4818ULL},
        MachineFingerprintCase{"hb_expander_w1",
                               {.kind = SchemeKind::kHbExpander},
                               MachineWrap::kPlain,
                               0x2572c9c121bf9d5aULL},
        MachineFingerprintCase{"hb_expander_w8",
                               {.kind = SchemeKind::kHbExpander,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x2572c9c121bf9d5aULL},
        MachineFingerprintCase{"ranade_w1", {.kind = SchemeKind::kRanade},
                               MachineWrap::kPlain,
                               0x0e18a59c8b5f1c32ULL},
        MachineFingerprintCase{"ranade_w8",
                               {.kind = SchemeKind::kRanade,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x0e18a59c8b5f1c32ULL},
        MachineFingerprintCase{"ida_w1", {.kind = SchemeKind::kIda},
                               MachineWrap::kPlain,
                               0x5f8d44732308ae57ULL},
        MachineFingerprintCase{"ida_w8",
                               {.kind = SchemeKind::kIda,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x5f8d44732308ae57ULL},
        MachineFingerprintCase{"hashed_w1", {.kind = SchemeKind::kHashed},
                               MachineWrap::kPlain,
                               0x1f894bf03dd6a43bULL},
        MachineFingerprintCase{"hashed_w8",
                               {.kind = SchemeKind::kHashed,
                                .region_words = 8},
                               MachineWrap::kPlain,
                               0x1f894bf03dd6a43bULL},
        MachineFingerprintCase{"dmmpc_cached", {.kind = SchemeKind::kDmmpc},
                               MachineWrap::kCached,
                               0x1fafdd067831546fULL},
        MachineFingerprintCase{"ida_cached", {.kind = SchemeKind::kIda},
                               MachineWrap::kCached,
                               0x8f1504b4b9ec6bbaULL},
        MachineFingerprintCase{"dmmpc_faulted", {.kind = SchemeKind::kDmmpc},
                               MachineWrap::kFaulted,
                               0xda55023aa16d3148ULL},
        MachineFingerprintCase{"ida_faulted", {.kind = SchemeKind::kIda},
                               MachineWrap::kFaulted,
                               0xc4f03b89f47350fcULL}),
    [](const ::testing::TestParamInfo<MachineFingerprintCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------- driver ------

TEST(Driver, StressAggregatesAllFamilies) {
  SimulationPipeline pipeline({.kind = SchemeKind::kDmmpc, .n = 64});
  const auto result =
      pipeline.run_stress({.steps_per_family = 3, .seed = 21});
  // 3 families x 3 steps + 3 adversarial steps.
  EXPECT_EQ(result.steps, 12u);
  EXPECT_GT(result.time.mean(), 0.0);
  EXPECT_GT(result.work.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.storage_factor,
                   static_cast<double>(pipeline.scheme().r));
  EXPECT_GT(result.redundancy_weighted_cost(), result.time.mean());
}

TEST(Driver, StressShardsAcrossTrialsDeterministically) {
  SimulationPipeline pipeline({.kind = SchemeKind::kDmmpc, .n = 64});
  const auto one = pipeline.run_stress(
      {.steps_per_family = 2, .seed = 5, .trials = 3});
  const auto two = pipeline.run_stress(
      {.steps_per_family = 2, .seed = 5, .trials = 3});
  // 3 trials x (3 families x 2 steps + 2 adversarial).
  EXPECT_EQ(one.steps, 24u);
  EXPECT_EQ(one.steps, two.steps);
  EXPECT_DOUBLE_EQ(one.time.mean(), two.time.mean());
  EXPECT_DOUBLE_EQ(one.work.mean(), two.work.mean());
}

TEST(Driver, StressUsesKnownHashPreimageAttackForMaplessSchemes) {
  SimulationPipeline pipeline({.kind = SchemeKind::kHashed, .n = 64});
  const auto result =
      pipeline.run_stress({.steps_per_family = 3, .seed = 21});
  // No memory map, but the hashed baseline knows its own hash: 3
  // families x 3 steps PLUS 3 known-hash preimage batches.
  EXPECT_EQ(result.steps, 12u);
  EXPECT_DOUBLE_EQ(result.storage_factor, 1.0);

  // The attack itself: every returned variable collides on one module,
  // so the batch costs a full serialization (time ~ batch size).
  const auto& memory = *pipeline.scheme().memory;
  const auto vars = memory.adversarial_vars(64, 99);
  ASSERT_EQ(vars.size(), 64u);
  std::unordered_set<std::uint32_t> distinct;
  for (const auto var : vars) {
    distinct.insert(var.value());
  }
  EXPECT_EQ(distinct.size(), 64u);
  pram::AccessBatch batch;
  for (std::uint32_t i = 0; i < vars.size(); ++i) {
    batch.push_back({ProcId(i), pram::AccessOp::kRead, vars[i], 0});
  }
  const auto cost = pipeline.run_batch(batch);
  EXPECT_EQ(cost.time, 64u);  // one module serves all 64 requests serially
}

// ------------------------------------- end-to-end, all schemes ----------

struct EndToEndCase {
  SchemeKind kind;
  const char* name;
};

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndTest, PrefixSumMatchesIdealPram) {
  const std::uint32_t n = 16;
  auto spec_ideal = pram::programs::prefix_sum(n);
  auto spec_sim = pram::programs::prefix_sum(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  SchemeSpec scheme{.kind = GetParam().kind,
                    .n = n,
                    .seed = 5,
                    .min_vars = spec_sim.m_required};
  pram::Machine simulated(cfg, std::move(spec_sim.program),
                          make_memory(scheme));

  util::Rng rng(1234);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<pram::Word>(rng.below(100));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  const auto a = ideal.run();
  const auto b = simulated.run();
  ASSERT_TRUE(a.completed());
  ASSERT_TRUE(b.completed()) << GetParam().name;
  EXPECT_EQ(a.steps, b.steps);
  if (GetParam().kind != SchemeKind::kHashed) {
    // Hashed single-copy memory charges only its max module load, which
    // can undercut the flat memory's 1-per-step on access-free steps.
    EXPECT_GT(b.mem_time, a.mem_time) << "simulation must cost time";
  }
  EXPECT_GT(b.mem_time, 0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i)))
        << GetParam().name << " cell " << i;
  }
}

TEST_P(EndToEndTest, OddEvenSortMatchesIdealPram) {
  const std::uint32_t n = 8;
  auto spec_ideal = pram::programs::odd_even_sort(n);
  auto spec_sim = pram::programs::odd_even_sort(n);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  SchemeSpec scheme{.kind = GetParam().kind,
                    .n = n,
                    .seed = 6,
                    .min_vars = spec_sim.m_required};
  pram::Machine simulated(cfg, std::move(spec_sim.program),
                          make_memory(scheme));
  util::Rng rng(99);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<pram::Word>(rng.below(50));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run(2'000'000).completed()) << GetParam().name;
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i)))
        << GetParam().name << " cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EndToEndTest,
    ::testing::Values(EndToEndCase{SchemeKind::kHpMot, "hp_mot"},
                      EndToEndCase{SchemeKind::kDmmpc, "dmmpc"},
                      EndToEndCase{SchemeKind::kUwMpc, "uw_mpc"},
                      EndToEndCase{SchemeKind::kLppMot, "lpp_mot"},
                      EndToEndCase{SchemeKind::kCrossbar, "crossbar"},
                      EndToEndCase{SchemeKind::kIda, "ida"},
                      EndToEndCase{SchemeKind::kHashed, "hashed"}),
    [](const ::testing::TestParamInfo<EndToEndCase>& param_info) {
      return param_info.param.name;
    });

TEST(EndToEnd, CrewListRankOnHpMot) {
  // CREW program (concurrent reads combined before the protocol runs).
  const std::uint32_t n = 16;
  auto spec_ideal = pram::programs::list_rank(n);
  auto spec_sim = pram::programs::list_rank(n);
  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = spec_ideal.m_required;
  cfg.policy = pram::ConflictPolicy::kCrew;
  pram::Machine ideal(cfg, std::move(spec_ideal.program));
  pram::Machine simulated(
      cfg, std::move(spec_sim.program),
      make_memory({.kind = SchemeKind::kHpMot,
                   .n = n,
                   .seed = 8,
                   .min_vars = spec_sim.m_required}));
  util::Rng rng(7);
  const auto order = rng.permutation(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const auto node = order[pos];
    const auto succ = pos + 1 < n ? order[pos + 1] : node;
    for (auto* machine : {&ideal, &simulated}) {
      machine->poke_shared(VarId(node), succ);
      machine->poke_shared(VarId(n + node), pos + 1 < n ? 1 : 0);
    }
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run().completed());
  for (std::uint32_t i = 0; i < 2 * n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i))) << i;
  }
}

}  // namespace
}  // namespace pramsim::core
