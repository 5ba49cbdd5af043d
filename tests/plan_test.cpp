// The AccessPlan / PlanBuilder gate: the arena-backed plan must carry
// exactly the joins the serve path consumes (request union, read/write
// index maps, block groups) from both builder entries, under one grouping
// rule, and MemorySystem::serve must stay bit-exact against a FlatMemory
// replica for every SchemeKind, including wrapped in
// faults::FaultableMemory at fault rate 0.
//
// The serve surface is gated here too: serve(plan, ctx) under the
// kGroupParallel backend must match the replica AND be bit-identical to
// the serial backend at any executor worker count, and per-read outage
// flags must reach ServeContext identically on every path (native serve,
// the step() adapter, the FaultableMemory wrapper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "pram/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pramsim {
namespace {

pram::AccessBatch mixed_batch() {
  pram::AccessBatch batch;
  batch.push_back({ProcId(0), pram::AccessOp::kRead, VarId(5), 0});
  batch.push_back({ProcId(3), pram::AccessOp::kWrite, VarId(5), 33});
  batch.push_back({ProcId(1), pram::AccessOp::kWrite, VarId(5), 11});
  batch.push_back({ProcId(2), pram::AccessOp::kRead, VarId(9), 0});
  batch.push_back({ProcId(4), pram::AccessOp::kWrite, VarId(2), 44});
  batch.push_back({ProcId(5), pram::AccessOp::kRead, VarId(9), 0});
  return batch;
}

TEST(PlanBuilder, PlanCarriesCombinedListsAndJoins) {
  pram::FlatMemory memory(16);
  pram::PlanBuilder builder;
  const auto& plan = builder.build(mixed_batch(), memory);

  // Combined lists: reads in first-appearance order, CW-resolved writes.
  ASSERT_EQ(plan.reads.size(), 2u);
  EXPECT_EQ(plan.reads[0], VarId(5));
  EXPECT_EQ(plan.reads[1], VarId(9));
  ASSERT_EQ(plan.writes.size(), 2u);
  EXPECT_EQ(plan.writes[0].var, VarId(5));
  EXPECT_EQ(plan.writes[0].value, 11);  // lowest-id writer wins
  EXPECT_EQ(plan.writes[1].var, VarId(2));
  EXPECT_EQ(plan.writes[1].value, 44);

  // Request union: reads first, then write-only variables; ops/flags
  // reflect the combined accesses.
  ASSERT_EQ(plan.requests.size(), 3u);
  EXPECT_EQ(plan.requests[0].var, VarId(5));
  EXPECT_EQ(plan.requests[0].op, pram::AccessOp::kWrite);
  EXPECT_TRUE(plan.requests[0].is_read);
  EXPECT_EQ(plan.requests[1].var, VarId(9));
  EXPECT_EQ(plan.requests[1].op, pram::AccessOp::kRead);
  EXPECT_TRUE(plan.requests[1].is_read);
  EXPECT_EQ(plan.requests[2].var, VarId(2));
  EXPECT_EQ(plan.requests[2].op, pram::AccessOp::kWrite);
  EXPECT_FALSE(plan.requests[2].is_read);

  // Joins are mutually inverse.
  ASSERT_EQ(plan.read_request.size(), plan.reads.size());
  ASSERT_EQ(plan.write_request.size(), plan.writes.size());
  ASSERT_EQ(plan.request_write.size(), plan.requests.size());
  EXPECT_EQ(plan.read_request[0], 0u);
  EXPECT_EQ(plan.read_request[1], 1u);
  EXPECT_EQ(plan.write_request[0], 0u);
  EXPECT_EQ(plan.write_request[1], 2u);
  EXPECT_EQ(plan.request_write[0], 0u);
  EXPECT_EQ(plan.request_write[1], pram::AccessPlan::kNone);
  EXPECT_EQ(plan.request_write[2], 1u);

  // FlatMemory requests no grouping.
  EXPECT_FALSE(plan.grouped());
}

TEST(PlanBuilder, CombinedStepEntryJoinsLikeTheBatchEntry) {
  pram::FlatMemory memory(16);
  pram::PlanBuilder from_batch;
  pram::PlanBuilder from_step;
  const auto& want = from_batch.build(mixed_batch(), memory);
  const std::vector<VarId> reads(want.reads.begin(), want.reads.end());
  const std::vector<pram::VarWrite> writes(want.writes.begin(),
                                           want.writes.end());
  const auto& plan = from_step.build(reads, writes, memory);

  ASSERT_EQ(plan.reads.size(), want.reads.size());
  ASSERT_EQ(plan.writes.size(), want.writes.size());
  ASSERT_EQ(plan.requests.size(), want.requests.size());
  for (std::size_t j = 0; j < plan.requests.size(); ++j) {
    EXPECT_EQ(plan.requests[j].var, want.requests[j].var);
    EXPECT_EQ(plan.requests[j].op, want.requests[j].op);
    EXPECT_EQ(plan.requests[j].is_read, want.requests[j].is_read);
    EXPECT_EQ(plan.request_write[j], want.request_write[j]);
  }
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    EXPECT_EQ(plan.reads[i], want.reads[i]);
    EXPECT_EQ(plan.read_request[i], want.read_request[i]);
  }
  for (std::size_t i = 0; i < plan.writes.size(); ++i) {
    EXPECT_EQ(plan.writes[i].var, want.writes[i].var);
    EXPECT_EQ(plan.writes[i].value, want.writes[i].value);
    EXPECT_EQ(plan.write_request[i], want.write_request[i]);
  }
  // The plan copies the lists: it does not alias the caller's spans.
  EXPECT_NE(plan.reads.data(), reads.data());
  EXPECT_NE(plan.writes.data(), writes.data());
}

// One grouping rule for both entries: a plan is grouped exactly when its
// target wants groups, empty plans included — and every memory serves
// such an empty plan as a free step.
TEST(PlanBuilder, EmptyPlansAreGroupedExactlyWhenTheTargetWantsGroups) {
  auto ida = core::make_memory({.kind = core::SchemeKind::kIda,
                                .n = 16,
                                .seed = 5});
  auto hashed_gp =
      core::make_memory({.kind = core::SchemeKind::kHashed,
                         .n = 16,
                         .seed = 5,
                         .backend = pram::ServeBackend::kGroupParallel});
  pram::FlatMemory flat(16);
  ASSERT_TRUE(ida->wants_plan_groups());
  ASSERT_FALSE(hashed_gp->wants_plan_groups());
  ASSERT_FALSE(flat.wants_plan_groups());
  pram::PlanBuilder builder;
  util::Executor executor;
  pram::ServeContext ctx({}, &executor);
  for (pram::MemorySystem* memory :
       {ida.get(), hashed_gp.get(),
        static_cast<pram::MemorySystem*>(&flat)}) {
    const bool wants = memory->wants_plan_groups();
    const auto& from_batch = builder.build(pram::AccessBatch{}, *memory);
    EXPECT_EQ(from_batch.grouped(), wants);
    EXPECT_EQ(from_batch.num_groups(), 0u);
    const auto& from_step = builder.build({}, {}, *memory);
    EXPECT_EQ(from_step.grouped(), wants);
    EXPECT_EQ(from_step.num_groups(), 0u);
    if (wants) {
      ASSERT_EQ(from_step.group_offsets.size(), 1u);
      EXPECT_EQ(from_step.group_offsets[0], 0u);
    }
    ctx.bind({});
    const pram::MemStepCost cost = memory->serve(from_step, ctx);
    EXPECT_EQ(cost.work, 0u);
    EXPECT_TRUE(ctx.flags().empty());
  }
}

TEST(PlanBuilder, GroupsMatchTargetKeysAndPartitionRequests) {
  auto memory = core::make_memory({.kind = core::SchemeKind::kIda,
                                   .n = 16,
                                   .seed = 5});
  ASSERT_TRUE(memory->wants_plan_groups());
  util::Rng rng(7);
  pram::PlanBuilder builder;
  const auto batch = pram::make_batch(pram::TraceFamily::kUniform, 16,
                                      memory->size(), rng);
  const auto& plan = builder.build(batch, *memory);
  ASSERT_TRUE(plan.grouped());
  ASSERT_EQ(plan.group_offsets.size(), plan.num_groups() + 1);
  ASSERT_EQ(plan.group_requests.size(), plan.requests.size());
  EXPECT_EQ(plan.group_offsets.front(), 0u);
  EXPECT_EQ(plan.group_offsets.back(), plan.requests.size());
  std::vector<bool> seen(plan.requests.size(), false);
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    if (g > 0) {
      EXPECT_LT(plan.group_keys[g - 1], plan.group_keys[g]);  // ascending
    }
    for (std::uint32_t i = plan.group_offsets[g];
         i < plan.group_offsets[g + 1]; ++i) {
      const std::uint32_t req = plan.group_requests[i];
      EXPECT_FALSE(seen[req]);  // a partition, not a cover
      seen[req] = true;
      EXPECT_EQ(memory->plan_group_of(plan.requests[req].var),
                plan.group_keys[g]);
      EXPECT_EQ(plan.request_group[req], g);
    }
  }
  for (const bool s : seen) {
    EXPECT_TRUE(s);
  }
}

// Plan groups exist for one serve unit larger than a variable, the IDA
// block: every other scheme's value phase splits the plan's requests
// into ranges, so no backend of theirs asks the builder for groups.
TEST(PlanBuilder, OnlyIdaWantsPlanGroupsOnEitherBackend) {
  for (const auto kind : core::all_scheme_kinds()) {
    for (const auto backend : {pram::ServeBackend::kSerial,
                               pram::ServeBackend::kGroupParallel}) {
      const auto memory = core::make_memory(
          {.kind = kind, .n = 16, .seed = 5, .backend = backend});
      EXPECT_EQ(memory->wants_plan_groups(), kind == core::SchemeKind::kIda)
          << core::to_string(kind) << " " << pram::to_string(backend);
    }
  }
}

// The combining rule, written with ordered maps: reads in
// first-appearance order, the lowest processor id wins a concurrent
// write, and write-only variables follow the reads in the order their
// first write appears.
struct ReferencePlan {
  std::vector<VarId> reads;
  std::vector<pram::VarWrite> writes;
  std::vector<pram::PlanRequest> requests;
  std::vector<std::uint32_t> read_request;
  std::vector<std::uint32_t> write_request;
  std::vector<std::uint32_t> request_write;
};

ReferencePlan reference_plan(const pram::AccessBatch& batch) {
  ReferencePlan ref;
  std::map<VarId, std::uint32_t> request_of;
  for (const auto& access : batch) {
    if (access.op == pram::AccessOp::kRead &&
        request_of.emplace(access.var, ref.requests.size()).second) {
      ref.read_request.push_back(
          static_cast<std::uint32_t>(ref.requests.size()));
      ref.reads.push_back(access.var);
      ref.requests.push_back({access.var, pram::AccessOp::kRead, true});
      ref.request_write.push_back(pram::AccessPlan::kNone);
    }
  }
  std::map<VarId, std::uint32_t> write_of;
  std::vector<ProcId> writer;
  for (const auto& access : batch) {
    if (access.op != pram::AccessOp::kWrite) {
      continue;
    }
    const auto [it, fresh] = write_of.emplace(access.var, ref.writes.size());
    if (fresh) {
      ref.writes.push_back({access.var, access.value});
      writer.push_back(access.proc);
    } else if (access.proc < writer[it->second]) {
      ref.writes[it->second].value = access.value;
      writer[it->second] = access.proc;
    }
  }
  for (std::uint32_t w = 0; w < ref.writes.size(); ++w) {
    const VarId var = ref.writes[w].var;
    const auto [it, fresh] = request_of.emplace(var, ref.requests.size());
    if (fresh) {
      ref.requests.push_back({var, pram::AccessOp::kWrite, false});
      ref.request_write.push_back(pram::AccessPlan::kNone);
    }
    ref.requests[it->second].op = pram::AccessOp::kWrite;
    ref.request_write[it->second] = w;
    ref.write_request.push_back(it->second);
  }
  return ref;
}

void expect_plan_matches(const pram::AccessPlan& plan,
                         const ReferencePlan& ref, const std::string& label) {
  ASSERT_EQ(plan.reads.size(), ref.reads.size()) << label;
  ASSERT_EQ(plan.read_request.size(), ref.read_request.size()) << label;
  for (std::size_t i = 0; i < ref.reads.size(); ++i) {
    ASSERT_EQ(plan.reads[i], ref.reads[i]) << label << " read " << i;
    ASSERT_EQ(plan.read_request[i], ref.read_request[i])
        << label << " read " << i;
  }
  ASSERT_EQ(plan.writes.size(), ref.writes.size()) << label;
  ASSERT_EQ(plan.write_request.size(), ref.write_request.size()) << label;
  for (std::size_t i = 0; i < ref.writes.size(); ++i) {
    ASSERT_EQ(plan.writes[i].var, ref.writes[i].var) << label << " write " << i;
    ASSERT_EQ(plan.writes[i].value, ref.writes[i].value)
        << label << " write " << i;
    ASSERT_EQ(plan.write_request[i], ref.write_request[i])
        << label << " write " << i;
  }
  ASSERT_EQ(plan.requests.size(), ref.requests.size()) << label;
  ASSERT_EQ(plan.request_write.size(), ref.request_write.size()) << label;
  for (std::size_t j = 0; j < ref.requests.size(); ++j) {
    ASSERT_EQ(plan.requests[j].var, ref.requests[j].var)
        << label << " request " << j;
    ASSERT_EQ(plan.requests[j].op, ref.requests[j].op)
        << label << " request " << j;
    ASSERT_EQ(plan.requests[j].is_read, ref.requests[j].is_read)
        << label << " request " << j;
    ASSERT_EQ(plan.request_write[j], ref.request_write[j])
        << label << " request " << j;
  }
}

// One reused builder against the reference on every trace family, in
// processor order and reversed (a lower id seen later must still win a
// write), plus an empty, an all-read and an all-write batch. The
// combined-step entry is fed the reference's lists and must join them
// the same way.
TEST(PlanBuilder, BatchEntryMatchesAnOrderedMapReference) {
  constexpr std::uint64_t kVars = 1 << 18;
  pram::FlatMemory memory(kVars);
  pram::PlanBuilder builder;
  util::Rng rng(11);
  std::vector<std::pair<std::string, pram::AccessBatch>> batches;
  batches.emplace_back("empty", pram::AccessBatch{});
  for (const std::uint32_t n : {1u, 64u, 4096u}) {
    for (const auto family : pram::all_trace_families()) {
      auto batch = pram::make_batch(family, n, kVars, rng);
      const std::string name =
          pram::to_string(family) + " n=" + std::to_string(n);
      batches.emplace_back(name, batch);
      std::reverse(batch.begin(), batch.end());
      batches.emplace_back(name + " reversed", std::move(batch));
    }
  }
  for (const double write_fraction : {0.0, 1.0}) {
    const pram::TraceParams params{.write_fraction = write_fraction};
    auto batch = pram::make_batch(pram::TraceFamily::kZipfian, 4096, kVars,
                                  rng, params);
    const std::string name =
        write_fraction == 0.0 ? "all-read zipfian" : "all-write zipfian";
    batches.emplace_back(name, batch);
    std::reverse(batch.begin(), batch.end());
    batches.emplace_back(name + " reversed", std::move(batch));
  }
  for (const auto& [name, batch] : batches) {
    const ReferencePlan ref = reference_plan(batch);
    expect_plan_matches(builder.build(batch, memory), ref, name + " batch");
    expect_plan_matches(builder.build(ref.reads, ref.writes, memory), ref,
                        name + " combined");
  }
}

// The bit-exactness gate on the serve path: for EVERY SchemeKind,
// serving random traffic through serve(plan) must produce the same read
// values and the same committed memory as a FlatMemory replica served the
// same plans — including with the scheme wrapped in a FaultableMemory at
// fault rate 0.
class PlanServeTest : public ::testing::TestWithParam<core::SchemeKind> {};

void expect_serve_matches_flat(pram::MemorySystem& memory,
                               util::Executor* executor, std::uint32_t n,
                               const char* name) {
  util::Rng rng(23);
  pram::ServeContext ctx({}, executor);
  pram::PlanBuilder builder;
  const std::uint64_t m = memory.size();
  pram::FlatMemory replica(m);
  for (int s = 0; s < 12; ++s) {
    const auto family = s % 2 == 0 ? pram::TraceFamily::kUniform
                                   : pram::TraceFamily::kPermutation;
    auto family_rng = rng.split();
    const auto batch = pram::make_batch(family, n, m, family_rng);
    const auto& plan = builder.build(batch, memory);
    std::vector<pram::Word> serve_values(plan.reads.size());
    std::vector<pram::Word> want(plan.reads.size());
    ctx.bind(serve_values);
    memory.serve(plan, ctx);
    replica.step(plan.reads, want, plan.writes);
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      ASSERT_EQ(serve_values[i], want[i])
          << name << " step " << s << " read " << i;
    }
  }
  for (std::uint64_t v = 0; v < m; ++v) {
    ASSERT_EQ(memory.peek(VarId(static_cast<std::uint32_t>(v))),
              replica.peek(VarId(static_cast<std::uint32_t>(v))))
        << name << " cell " << v;
  }
}

TEST_P(PlanServeTest, ServeMatchesFlatReplicaBitExact) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{.kind = GetParam(), .n = n, .seed = 5};
  auto memory = core::make_memory(spec);
  expect_serve_matches_flat(*memory, nullptr, n,
                            core::to_string(GetParam()));
}

TEST_P(PlanServeTest, ServeMatchesFlatReplicaUnderInertFaultWrapper) {
  const std::uint32_t n = 16;
  const core::SchemeSpec spec{.kind = GetParam(), .n = n, .seed = 5};
  const faults::FaultSpec inert{.seed = 77};
  ASSERT_TRUE(inert.inert());
  faults::FaultableMemory memory(core::make_memory(spec), inert);
  expect_serve_matches_flat(memory, nullptr, n, core::to_string(GetParam()));
  EXPECT_EQ(memory.reliability().wrong_reads, 0u);
}

std::string kind_name(const ::testing::TestParamInfo<core::SchemeKind>& info) {
  std::string name = core::to_string(info.param);
  for (auto& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(EverySchemeKind, PlanServeTest,
                         ::testing::ValuesIn(core::all_scheme_kinds()),
                         kind_name);

/// Restore the automatic worker policy even when an assertion fails.
struct WorkerOverrideGuard {
  ~WorkerOverrideGuard() { util::set_parallel_workers_override(0); }
};

// ----- ServeContext + group-parallel backend ---------------------------

// For EVERY SchemeKind, the kGroupParallel backend (downgraded to serial
// by schemes without the capability) must match the FlatMemory replica
// when served through the context entry with a live executor fanning
// request ranges across workers.
TEST_P(PlanServeTest, GroupParallelServeMatchesFlatReplica) {
  WorkerOverrideGuard guard;
  util::set_parallel_workers_override(4);
  const std::uint32_t n = 16;
  core::SchemeSpec spec{.kind = GetParam(), .n = n, .seed = 5};
  spec.backend = pram::ServeBackend::kGroupParallel;
  auto memory = core::make_memory(spec);
  util::Executor executor;
  expect_serve_matches_flat(*memory, &executor, n,
                            core::to_string(GetParam()));
}

// The schemes shipping native group-parallel serve must actually engage
// it (capability), and the backend must be bit-identical
// to the serial backend at every worker count — values, committed state,
// reliability telemetry, and outage flags — healthy AND degraded. None
// of these kinds reads the region width, so the sweep has no width axis.
class GroupParallelBackendTest
    : public ::testing::TestWithParam<core::SchemeKind> {};

void drive_backend(core::SchemeSpec spec, pram::ServeBackend backend,
                   std::size_t workers, const faults::FaultModel* hooks,
                   std::vector<pram::Word>& all_values,
                   std::vector<std::uint8_t>& all_flags,
                   pram::ReliabilityStats& stats,
                   std::vector<pram::Word>& final_cells) {
  WorkerOverrideGuard guard;
  util::set_parallel_workers_override(workers);
  spec.backend = backend;
  auto memory = core::make_memory(spec);
  if (backend == pram::ServeBackend::kGroupParallel) {
    ASSERT_TRUE(memory->capabilities() & pram::kGroupParallel)
        << core::to_string(spec.kind);
  }
  if (hooks != nullptr) {
    ASSERT_TRUE(memory->set_fault_hooks(hooks));
  }
  util::Rng rng(31);
  util::Executor executor;
  pram::ServeContext ctx({}, &executor);
  pram::PlanBuilder builder;
  std::vector<pram::Word> values;
  for (int s = 0; s < 10; ++s) {
    const auto batch = pram::make_batch(pram::TraceFamily::kUniform,
                                        spec.n, memory->size(), rng);
    const auto& plan = builder.build(batch, *memory);
    values.resize(plan.reads.size());
    ctx.bind(values);
    memory->serve(plan, ctx);
    all_values.insert(all_values.end(), values.begin(), values.end());
    if (ctx.flags().empty()) {
      all_flags.insert(all_flags.end(), plan.reads.size(), 0);
    } else {
      all_flags.insert(all_flags.end(), ctx.flags().begin(),
                       ctx.flags().end());
    }
  }
  stats = memory->reliability();
  for (std::uint32_t v = 0; v < 4 * spec.n; ++v) {
    final_cells.push_back(memory->peek(VarId(v)));
  }
}

TEST_P(GroupParallelBackendTest, BitIdenticalToSerialAtAnyWorkerCount) {
  const core::SchemeSpec spec{.kind = GetParam(), .n = 16, .seed = 7};
  const faults::FaultSpec fault_spec{.seed = 99, .module_kill_rate = 0.4,
                                     .stuck_rate = 0.05,
                                     .corruption_rate = 0.2};
  for (const bool faulty : {false, true}) {
    const auto n_modules = core::make_memory(spec)->num_modules();
    const faults::FaultModel model(fault_spec, n_modules);
    const faults::FaultModel* hooks = faulty ? &model : nullptr;

    std::vector<pram::Word> serial_values, gp1_values, gp4_values;
    std::vector<std::uint8_t> serial_flags, gp1_flags, gp4_flags;
    pram::ReliabilityStats serial_stats, gp1_stats, gp4_stats;
    std::vector<pram::Word> serial_cells, gp1_cells, gp4_cells;
    drive_backend(spec, pram::ServeBackend::kSerial, 1, hooks,
                  serial_values, serial_flags, serial_stats, serial_cells);
    drive_backend(spec, pram::ServeBackend::kGroupParallel, 1, hooks,
                  gp1_values, gp1_flags, gp1_stats, gp1_cells);
    drive_backend(spec, pram::ServeBackend::kGroupParallel, 4, hooks,
                  gp4_values, gp4_flags, gp4_stats, gp4_cells);

    EXPECT_EQ(serial_values, gp1_values) << (faulty ? "faulty" : "healthy");
    EXPECT_EQ(serial_values, gp4_values) << (faulty ? "faulty" : "healthy");
    EXPECT_EQ(serial_flags, gp1_flags);
    EXPECT_EQ(serial_flags, gp4_flags);
    EXPECT_EQ(serial_cells, gp1_cells);
    EXPECT_EQ(serial_cells, gp4_cells);
    EXPECT_EQ(serial_stats.reads_served, gp4_stats.reads_served);
    EXPECT_EQ(serial_stats.faults_masked, gp4_stats.faults_masked);
    EXPECT_EQ(serial_stats.uncorrectable, gp4_stats.uncorrectable);
    EXPECT_EQ(serial_stats.erasures_skipped, gp4_stats.erasures_skipped);
    EXPECT_EQ(serial_stats.units_faulty, gp4_stats.units_faulty);
    EXPECT_EQ(serial_stats.writes_dropped, gp4_stats.writes_dropped);
    EXPECT_EQ(serial_stats.corrupt_stores, gp4_stats.corrupt_stores);
    if (faulty) {
      EXPECT_GT(serial_stats.reads_served, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NativeGroupParallelSchemes, GroupParallelBackendTest,
    ::testing::Values(core::SchemeKind::kDmmpc, core::SchemeKind::kUwMpc,
                      core::SchemeKind::kHpMot, core::SchemeKind::kHashed),
    kind_name);

/// Per-read flags as 0/1 bytes, one per read (an empty span means none).
std::vector<std::uint8_t> flag_bytes(std::span<const std::uint8_t> flags,
                                     std::size_t n_reads) {
  std::vector<std::uint8_t> out(n_reads, 0);
  for (std::size_t i = 0; i < flags.size() && i < n_reads; ++i) {
    out[i] = flags[i] != 0 ? 1 : 0;
  }
  return out;
}

// Reads under erasure must be flagged identically whether a scheme with
// hooks installed directly is served through serve(plan, ctx) or through
// the step() adapter, and every read left unflagged must match a
// FlatMemory replica: with erasures only, a read either survives intact
// or is a flagged loss.
TEST(ServeContextFlags, ErasureFlagsIdenticalOnServeAndStepPaths) {
  const std::uint32_t n = 16;
  const faults::FaultSpec fault_spec{.seed = 99, .module_kill_rate = 0.6};
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kIda,
        core::SchemeKind::kHashed}) {
    const core::SchemeSpec spec{.kind = kind, .n = n, .seed = 5};
    auto via_serve = core::make_memory(spec);
    auto via_step = core::make_memory(spec);
    const faults::FaultModel model(fault_spec, via_serve->num_modules());
    ASSERT_TRUE(via_serve->set_fault_hooks(&model));
    ASSERT_TRUE(via_step->set_fault_hooks(&model));
    pram::FlatMemory replica(via_serve->size());

    util::Rng rng(41);
    pram::ServeContext ctx;
    pram::PlanBuilder builder;
    std::uint64_t flagged_total = 0;
    for (int s = 0; s < 8; ++s) {
      const auto batch = pram::make_batch(pram::TraceFamily::kUniform, n,
                                          via_serve->size(), rng);
      const auto& plan = builder.build(batch, *via_serve);
      std::vector<pram::Word> serve_values(plan.reads.size());
      std::vector<pram::Word> step_values(plan.reads.size());
      std::vector<pram::Word> want(plan.reads.size());
      ctx.bind(serve_values);
      via_serve->serve(plan, ctx);
      via_step->step(plan.reads, step_values, plan.writes);
      replica.step(plan.reads, want, plan.writes);
      const auto flags = flag_bytes(ctx.flags(), plan.reads.size());
      ASSERT_EQ(flags, flag_bytes(via_step->flagged_reads(),
                                  plan.reads.size()))
          << core::to_string(kind) << " step " << s;
      ASSERT_EQ(serve_values, step_values)
          << core::to_string(kind) << " step " << s;
      for (std::size_t i = 0; i < plan.reads.size(); ++i) {
        if (flags[i] == 0) {
          ASSERT_EQ(serve_values[i], want[i])
              << core::to_string(kind) << " step " << s << " read " << i;
        }
        flagged_total += flags[i];
      }
    }
    // A 60% module kill must flag something, or the test tests nothing.
    EXPECT_GT(flagged_total, 0u) << core::to_string(kind);
  }
}

// The FaultableMemory wrapper must hand its inner scheme's flags through
// the context unchanged: served through the wrapper, a scheme flags and
// reads exactly like a twin served with the same fault model installed
// directly.
TEST(ServeContextFlags, WrapperExposesFlagsThroughServeContext) {
  const std::uint32_t n = 16;
  const faults::FaultSpec fault_spec{.seed = 7, .module_kill_rate = 0.8};
  for (const auto kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kHashed,
        core::SchemeKind::kRanade}) {
    const core::SchemeSpec spec{.kind = kind, .n = n, .seed = 5};
    faults::FaultableMemory wrapped(core::make_memory(spec), fault_spec);
    auto twin = core::make_memory(spec);
    const faults::FaultModel model(fault_spec, twin->num_modules());
    ASSERT_TRUE(twin->set_fault_hooks(&model));

    util::Rng rng(43);
    pram::ServeContext ctx;
    pram::ServeContext twin_ctx;
    pram::PlanBuilder builder;
    pram::PlanBuilder twin_builder;
    std::uint64_t flagged_total = 0;
    for (int s = 0; s < 8; ++s) {
      const auto batch = pram::make_batch(pram::TraceFamily::kUniform, n,
                                          wrapped.size(), rng);
      const auto& plan = builder.build(batch, wrapped);
      const auto& twin_plan = twin_builder.build(batch, *twin);
      std::vector<pram::Word> values(plan.reads.size());
      std::vector<pram::Word> twin_values(twin_plan.reads.size());
      ctx.bind(values);
      twin_ctx.bind(twin_values);
      wrapped.serve(plan, ctx);
      twin->serve(twin_plan, twin_ctx);
      const auto flags = flag_bytes(ctx.flags(), plan.reads.size());
      ASSERT_EQ(flags, flag_bytes(twin_ctx.flags(), twin_plan.reads.size()))
          << core::to_string(kind) << " step " << s;
      ASSERT_EQ(values, twin_values)
          << core::to_string(kind) << " step " << s;
      for (const std::uint8_t flag : flags) {
        flagged_total += flag;
      }
    }
    EXPECT_GT(flagged_total, 0u) << core::to_string(kind);
  }
}

}  // namespace
}  // namespace pramsim
