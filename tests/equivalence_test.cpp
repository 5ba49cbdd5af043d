// The acceptance gate for the unified engine layer: EVERY SchemeKind —
// including the IDA and hashed organizations that used to be dead-end
// subsystems — must (a) execute randomized P-RAM programs through
// pram::Machine with bit-exact final shared memory vs the ideal
// FlatMemory, and (b) serve the scheme-agnostic SimulationPipeline's
// stress traffic. No scheme-specific branches anywhere: one factory call,
// one driver.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/sink.hpp"
#include "pram/machine.hpp"
#include "pram/plan_builder.hpp"
#include "pram/programs.hpp"
#include "pram/serve_context.hpp"
#include "pram/snapshot.hpp"
#include "pram/trace.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

// Every suite runs the full SchemeKind grid at BOTH storage
// granularities: region_words 1 (the classic word-at-a-time layout the
// pre-region code used) and 8 (region rows, bulk vote/recode paths).
// Regions are a pure storage/throughput knob, so the whole file's
// bit-exactness gates apply unchanged at every width.
using KindAndWidth = std::tuple<core::SchemeKind, std::uint32_t>;

class AllKindsTest : public ::testing::TestWithParam<KindAndWidth> {
 protected:
  [[nodiscard]] static core::SchemeKind kind() {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] static std::uint32_t width() {
    return std::get<1>(GetParam());
  }
};

std::string kind_name(const ::testing::TestParamInfo<KindAndWidth>& info) {
  std::string name = core::to_string(std::get<0>(info.param));
  for (auto& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name + "_w" + std::to_string(std::get<1>(info.param));
}

TEST_P(AllKindsTest, RandomizedProgramsMatchFlatMemoryBitExact) {
  const std::uint32_t n = 16;
  for (const std::uint64_t program_seed : {11ULL, 23ULL, 47ULL}) {
    auto ideal_spec = pram::programs::random_exclusive(n, 12, program_seed);
    auto sim_spec = pram::programs::random_exclusive(n, 12, program_seed);

    pram::MachineConfig cfg;
    cfg.n_processors = n;
    cfg.m_shared_cells = ideal_spec.m_required;
    cfg.policy = pram::ConflictPolicy::kErew;

    pram::Machine ideal(cfg, std::move(ideal_spec.program));
    pram::Machine simulated(
        cfg, std::move(sim_spec.program),
        core::make_memory({.kind = kind(),
                           .n = n,
                           .seed = 5,
                           .min_vars = ideal_spec.m_required,
                           .region_words = width()}));

    util::Rng init(program_seed * 977 + 1);
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      const auto v = static_cast<pram::Word>(init.below(1000));
      ideal.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
      simulated.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
    }
    const auto a = ideal.run();
    const auto b = simulated.run();
    ASSERT_TRUE(a.completed());
    ASSERT_TRUE(b.completed())
        << core::to_string(kind()) << " seed " << program_seed;
    EXPECT_EQ(a.steps, b.steps);
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      ASSERT_EQ(ideal.shared(VarId(static_cast<std::uint32_t>(i))),
                simulated.shared(VarId(static_cast<std::uint32_t>(i))))
          << core::to_string(kind()) << " seed " << program_seed
          << " cell " << i;
    }
  }
}

TEST_P(AllKindsTest, LibraryProgramMatchesFlatMemory) {
  const std::uint32_t n = 16;
  auto ideal_spec = pram::programs::prefix_sum(n);
  auto sim_spec = pram::programs::prefix_sum(n);
  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = ideal_spec.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;
  pram::Machine ideal(cfg, std::move(ideal_spec.program));
  pram::Machine simulated(
      cfg, std::move(sim_spec.program),
      core::make_memory({.kind = kind(),
                         .n = n,
                         .seed = 9,
                         .min_vars = ideal_spec.m_required,
                         .region_words = width()}));
  util::Rng init(4242);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = static_cast<pram::Word>(init.below(100));
    ideal.poke_shared(VarId(i), v);
    simulated.poke_shared(VarId(i), v);
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run(2'000'000).completed())
      << core::to_string(kind());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ideal.shared(VarId(i)), simulated.shared(VarId(i)))
        << core::to_string(kind()) << " cell " << i;
  }
}

TEST_P(AllKindsTest, RunsTheUnifiedStressPipeline) {
  core::SimulationPipeline pipeline(
      {.kind = kind(), .n = 16, .seed = 3, .region_words = width()});
  const auto result =
      pipeline.run_stress({.steps_per_family = 2, .seed = 7, .trials = 2});
  // 2 trials x (3 exclusive families x 2 steps [+ 2 adversarial when the
  // scheme has a memory map OR crafts its own worst-case batches, like
  // the hashed baseline's known-hash preimage attack]).
  const auto& memory = *pipeline.scheme().memory;
  const bool has_adversary = memory.memory_map() != nullptr ||
                             !memory.adversarial_vars(16, 7).empty();
  EXPECT_EQ(result.steps, has_adversary ? 16u : 12u)
      << core::to_string(kind());
  EXPECT_GT(result.time.mean(), 0.0) << core::to_string(kind());
  EXPECT_GE(result.storage_factor, 1.0) << core::to_string(kind());

  // And the prototype serves one-shot batches through the same interface.
  util::Rng rng(1);
  const auto batch = pram::make_batch(pram::TraceFamily::kPermutation, 16,
                                      pipeline.scheme().m, rng);
  const auto cost = pipeline.run_batch(batch);
  EXPECT_GT(cost.time, 0u) << core::to_string(kind());
}

// The fault-rate-0 equivalence gate: wrapping ANY scheme in a
// FaultableMemory with an inert fault spec must stay bit-exact vs
// FlatMemory. This is stronger than "the wrapper forwards": with hooks
// installed the replicated schemes run their DEGRADED protocol
// (write-through + majority vote over all copies), so transparency here
// proves the degraded protocol itself is value-correct when nothing has
// actually failed.
TEST_P(AllKindsTest, FaultWrapperAtRateZeroIsTransparent) {
  const std::uint32_t n = 16;
  for (const std::uint64_t program_seed : {13ULL, 29ULL}) {
    auto ideal_spec = pram::programs::random_exclusive(n, 12, program_seed);
    auto sim_spec = pram::programs::random_exclusive(n, 12, program_seed);

    pram::MachineConfig cfg;
    cfg.n_processors = n;
    cfg.m_shared_cells = ideal_spec.m_required;
    cfg.policy = pram::ConflictPolicy::kErew;

    const faults::FaultSpec inert{.seed = 77};
    ASSERT_TRUE(inert.inert());
    auto faultable = std::make_unique<faults::FaultableMemory>(
        core::make_memory({.kind = kind(),
                           .n = n,
                           .seed = 5,
                           .min_vars = ideal_spec.m_required,
                           .region_words = width()}),
        inert);
    const faults::FaultableMemory* observer = faultable.get();

    pram::Machine ideal(cfg, std::move(ideal_spec.program));
    pram::Machine simulated(cfg, std::move(sim_spec.program),
                            std::move(faultable));

    util::Rng init(program_seed * 977 + 1);
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      const auto v = static_cast<pram::Word>(init.below(1000));
      ideal.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
      simulated.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
    }
    ASSERT_TRUE(ideal.run().completed());
    ASSERT_TRUE(simulated.run().completed()) << core::to_string(kind());
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      ASSERT_EQ(ideal.shared(VarId(static_cast<std::uint32_t>(i))),
                simulated.shared(VarId(static_cast<std::uint32_t>(i))))
          << core::to_string(kind()) << " seed " << program_seed
          << " cell " << i;
    }
    // The trace-consistency oracle watched every read and saw no lies,
    // no masked faults, no outages.
    const auto stats = observer->reliability();
    EXPECT_EQ(stats.wrong_reads, 0u) << core::to_string(kind());
    EXPECT_EQ(stats.faults_masked, 0u) << core::to_string(kind());
    EXPECT_EQ(stats.uncorrectable, 0u) << core::to_string(kind());
    EXPECT_EQ(stats.writes_dropped, 0u) << core::to_string(kind());
    EXPECT_EQ(observer->model().dead_module_count(), 0u);
  }
}

// Observability must be a pure observer: attaching a sink (metrics +
// phase timers + journal) to the rate-zero fault wrapper changes NO
// served value, and a healthy run journals no fault-kind events — the
// only counters that move are the benign serving tallies.
TEST_P(AllKindsTest, ObservedWrapperAtRateZeroStaysTransparent) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  const std::uint32_t n = 16;
  const std::uint64_t program_seed = 13;
  auto ideal_spec = pram::programs::random_exclusive(n, 12, program_seed);
  auto sim_spec = pram::programs::random_exclusive(n, 12, program_seed);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = ideal_spec.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  const faults::FaultSpec inert{.seed = 77};
  auto faultable = std::make_unique<faults::FaultableMemory>(
      core::make_memory({.kind = kind(),
                         .n = n,
                         .seed = 5,
                         .min_vars = ideal_spec.m_required,
                         .region_words = width()}),
      inert);
  obs::Sink sink;
  faultable->set_observer(&sink);

  pram::Machine ideal(cfg, std::move(ideal_spec.program));
  pram::Machine simulated(cfg, std::move(sim_spec.program),
                          std::move(faultable));

  util::Rng init(program_seed * 977 + 1);
  for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
    const auto v = static_cast<pram::Word>(init.below(1000));
    ideal.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
    simulated.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run().completed()) << core::to_string(kind());
  for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
    ASSERT_EQ(ideal.shared(VarId(static_cast<std::uint32_t>(i))),
              simulated.shared(VarId(static_cast<std::uint32_t>(i))))
        << core::to_string(kind()) << " cell " << i;
  }

  // A healthy observed run journals nothing alarming: no onsets, no
  // degraded votes/decodes, no wrong reads, no relocations.
  sink.journal.flush();
  for (const auto& event : sink.journal.events()) {
    EXPECT_TRUE(event.kind == obs::EventKind::kRehash)
        << core::to_string(kind()) << " journaled "
        << obs::to_string(event.kind);
  }
  EXPECT_EQ(sink.metrics.counters().count("oracle.wrong_reads"), 0u)
      << core::to_string(kind());
  EXPECT_EQ(sink.metrics.counters().count("fault.onsets"), 0u)
      << core::to_string(kind());
}

// Cached-wrapper equivalence gate: EVERY SchemeKind wrapped in
// cache::CachedMemory must stay bit-exact vs FlatMemory. The capacity is
// deliberately tiny (32 lines, far below the program footprint) so the
// run exercises misses, clock evictions, and dirty write-backs — not
// just an always-hot cache forwarding nothing.
TEST_P(AllKindsTest, CachedSchemeMatchesFlatMemoryBitExact) {
  const std::uint32_t n = 16;
  for (const std::uint64_t program_seed : {11ULL, 23ULL}) {
    auto ideal_spec = pram::programs::random_exclusive(n, 12, program_seed);
    auto sim_spec = pram::programs::random_exclusive(n, 12, program_seed);

    pram::MachineConfig cfg;
    cfg.n_processors = n;
    cfg.m_shared_cells = ideal_spec.m_required;
    cfg.policy = pram::ConflictPolicy::kErew;

    pram::Machine ideal(cfg, std::move(ideal_spec.program));
    pram::Machine simulated(
        cfg, std::move(sim_spec.program),
        core::make_memory({.kind = kind(),
                           .n = n,
                           .seed = 5,
                           .min_vars = ideal_spec.m_required,
                           .region_words = width(),
                           .cache_lines = 32}));

    util::Rng init(program_seed * 977 + 1);
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      const auto v = static_cast<pram::Word>(init.below(1000));
      ideal.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
      simulated.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
    }
    const auto a = ideal.run();
    const auto b = simulated.run();
    ASSERT_TRUE(a.completed());
    ASSERT_TRUE(b.completed()) << core::to_string(kind());
    EXPECT_EQ(a.steps, b.steps);
    for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
      ASSERT_EQ(ideal.shared(VarId(static_cast<std::uint32_t>(i))),
                simulated.shared(VarId(static_cast<std::uint32_t>(i))))
          << core::to_string(kind()) << " seed " << program_seed
          << " cell " << i;
    }
  }
}

// And the composition the fault-model docs call out: CachedMemory OVER a
// rate-0 FaultableMemory (hooks installed but inert) stays bit-exact,
// with the oracle seeing only the cache's residual traffic.
TEST_P(AllKindsTest, CachedOverRateZeroFaultableIsTransparent) {
  const std::uint32_t n = 16;
  const std::uint64_t program_seed = 29;
  auto ideal_spec = pram::programs::random_exclusive(n, 12, program_seed);
  auto sim_spec = pram::programs::random_exclusive(n, 12, program_seed);

  pram::MachineConfig cfg;
  cfg.n_processors = n;
  cfg.m_shared_cells = ideal_spec.m_required;
  cfg.policy = pram::ConflictPolicy::kErew;

  const faults::FaultSpec inert{.seed = 77};
  ASSERT_TRUE(inert.inert());
  auto faultable = std::make_unique<faults::FaultableMemory>(
      core::make_memory({.kind = kind(),
                         .n = n,
                         .seed = 5,
                         .min_vars = ideal_spec.m_required,
                         .region_words = width()}),
      inert);
  const faults::FaultableMemory* observer = faultable.get();
  auto cached = std::make_unique<cache::CachedMemory>(
      std::move(faultable), cache::CacheConfig{.capacity = 32});

  pram::Machine ideal(cfg, std::move(ideal_spec.program));
  pram::Machine simulated(cfg, std::move(sim_spec.program),
                          std::move(cached));

  util::Rng init(program_seed * 977 + 1);
  for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
    const auto v = static_cast<pram::Word>(init.below(1000));
    ideal.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
    simulated.poke_shared(VarId(static_cast<std::uint32_t>(i)), v);
  }
  ASSERT_TRUE(ideal.run().completed());
  ASSERT_TRUE(simulated.run().completed()) << core::to_string(kind());
  for (std::uint64_t i = 0; i < ideal_spec.m_required; ++i) {
    ASSERT_EQ(ideal.shared(VarId(static_cast<std::uint32_t>(i))),
              simulated.shared(VarId(static_cast<std::uint32_t>(i))))
        << core::to_string(kind()) << " cell " << i;
  }
  const auto stats = observer->reliability();
  EXPECT_EQ(stats.wrong_reads, 0u) << core::to_string(kind());
  EXPECT_EQ(stats.uncorrectable, 0u) << core::to_string(kind());
}

// Durability transparency gate: snapshot/restore at checkpoint interval
// 1. After EVERY served step the scheme is serialized and restored into
// a FRESHLY CONSTRUCTED instance, which then serves the next step — so
// any mutable state a snapshot_body forgets (copy stamps, share rows,
// hash tables, relocation overlays) desynchronizes the run immediately.
// Reads and final memory must stay bit-exact vs an uninterrupted run,
// for every SchemeKind at both region widths.
TEST_P(AllKindsTest, SnapshotRestoreEveryStepIsTransparent) {
  const core::SchemeSpec spec{
      .kind = kind(), .n = 16, .seed = 5, .region_words = width()};
  auto reference = core::make_memory(spec);
  auto hopping = core::make_memory(spec);
  const std::uint64_t m = reference->size();
  ASSERT_EQ(m, hopping->size());

  util::Rng trace_rng(31);
  const auto trace =
      pram::make_trace(pram::TraceFamily::kUniform, 16, m, 12, trace_rng);

  pram::PlanBuilder ref_builder;
  pram::PlanBuilder hop_builder;
  pram::ServeContext ref_ctx;
  pram::ServeContext hop_ctx;
  std::vector<pram::Word> ref_values;
  std::vector<pram::Word> hop_values;
  for (std::size_t step = 0; step < trace.size(); ++step) {
    const auto& ref_plan = ref_builder.build(trace[step], *reference);
    ref_values.resize(ref_plan.reads.size());
    ref_ctx.bind(ref_values);
    (void)reference->serve(ref_plan, ref_ctx);

    const auto& hop_plan = hop_builder.build(trace[step], *hopping);
    hop_values.resize(hop_plan.reads.size());
    hop_ctx.bind(hop_values);
    (void)hopping->serve(hop_plan, hop_ctx);

    ASSERT_EQ(ref_values, hop_values)
        << core::to_string(kind()) << " w" << width() << " step " << step;

    // Checkpoint-interval-1: serialize, then resume on a fresh instance.
    pram::BufferSink sink;
    hopping->snapshot(sink);
    const auto bytes = sink.take();
    auto restored = core::make_memory(spec);
    pram::BufferSource source(bytes);
    ASSERT_TRUE(restored->restore(source))
        << core::to_string(kind()) << " w" << width() << " step " << step;
    ASSERT_TRUE(source.exhausted())
        << core::to_string(kind()) << " w" << width() << " step " << step;
    EXPECT_EQ(restored->steps_served(), hopping->steps_served());
    hopping = std::move(restored);
  }

  for (std::uint64_t v = 0; v < m; ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ASSERT_EQ(reference->peek(var), hopping->peek(var))
        << core::to_string(kind()) << " w" << width() << " var " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EverySchemeKind, AllKindsTest,
    ::testing::Combine(::testing::ValuesIn(core::all_scheme_kinds()),
                       ::testing::Values(1u, 8u)),
    kind_name);

}  // namespace
}  // namespace pramsim
