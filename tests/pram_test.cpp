// Tests for the ideal P-RAM: ISA semantics, lock-step execution, conflict
// policies, the canonical program library, and trace generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "cache/cached_memory.hpp"
#include "pram/machine.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "pram/program.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::pram {
namespace {

Machine make_single(Program prog, std::uint64_t m = 16) {
  MachineConfig cfg;
  cfg.n_processors = 1;
  cfg.m_shared_cells = m;
  cfg.policy = ConflictPolicy::kErew;
  return Machine(cfg, std::move(prog));
}

// ------------------------------------------------------------- ISA ------

TEST(Isa, ArithmeticOps) {
  Program p;
  p.loadi(R1, 7).loadi(R2, 3);
  p.add(R3, R1, R2);   // 10
  p.sub(R4, R1, R2);   // 4
  p.mul(R5, R1, R2);   // 21
  p.div(R6, R1, R2);   // 2
  p.mod(R7, R1, R2);   // 1
  p.min(R8, R1, R2);   // 3
  p.max(R9, R1, R2);   // 7
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R3), 10);
  EXPECT_EQ(m.reg(ProcId(0), R4), 4);
  EXPECT_EQ(m.reg(ProcId(0), R5), 21);
  EXPECT_EQ(m.reg(ProcId(0), R6), 2);
  EXPECT_EQ(m.reg(ProcId(0), R7), 1);
  EXPECT_EQ(m.reg(ProcId(0), R8), 3);
  EXPECT_EQ(m.reg(ProcId(0), R9), 7);
}

TEST(Isa, BitwiseAndShift) {
  Program p;
  p.loadi(R1, 0b1100).loadi(R2, 0b1010).loadi(R3, 2);
  p.and_(R4, R1, R2);  // 0b1000
  p.or_(R5, R1, R2);   // 0b1110
  p.xor_(R6, R1, R2);  // 0b0110
  p.shl(R7, R1, R3);   // 0b110000
  p.shr(R8, R1, R3);   // 0b11
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R4), 0b1000);
  EXPECT_EQ(m.reg(ProcId(0), R5), 0b1110);
  EXPECT_EQ(m.reg(ProcId(0), R6), 0b0110);
  EXPECT_EQ(m.reg(ProcId(0), R7), 0b110000);
  EXPECT_EQ(m.reg(ProcId(0), R8), 0b11);
}

TEST(Isa, Comparisons) {
  Program p;
  p.loadi(R1, 5).loadi(R2, 9);
  p.slt(R3, R1, R2);
  p.sle(R4, R2, R2);
  p.seq(R5, R1, R2);
  p.sne(R6, R1, R2);
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R3), 1);
  EXPECT_EQ(m.reg(ProcId(0), R4), 1);
  EXPECT_EQ(m.reg(ProcId(0), R5), 0);
  EXPECT_EQ(m.reg(ProcId(0), R6), 1);
}

TEST(Isa, ImmediateForms) {
  Program p;
  p.loadi(R1, 10).addi(R2, R1, -3).muli(R3, R1, 4);
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R2), 7);
  EXPECT_EQ(m.reg(ProcId(0), R3), 40);
}

TEST(Isa, LocalMemoryRoundTrip) {
  Program p;
  p.loadi(R1, 123).loadi(R2, 5);
  p.lstore(R2, R1, 10);  // private[15] = 123
  p.lload(R3, R2, 10);   // R3 = private[15]
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R3), 123);
  EXPECT_EQ(m.private_mem(ProcId(0), 15), 123);
}

TEST(Isa, SharedMemoryRoundTrip) {
  Program p;
  p.loadi(R1, 42).loadi(R2, 3);
  p.swrite(R2, R1, 1);  // shared[4] = 42
  p.sread(R3, R2, 1);   // R3 = shared[4]
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R3), 42);
  EXPECT_EQ(m.shared(VarId(4)), 42);
}

TEST(Isa, JumpsAndLoops) {
  // Sum 1..10 with a loop.
  Program p;
  p.loadi(R1, 10).loadi(R2, 0);
  p.label("loop");
  p.add(R2, R2, R1);
  p.addi(R1, R1, -1);
  p.jnz(R1, "loop");
  p.halt();
  auto m = make_single(std::move(p));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.reg(ProcId(0), R2), 55);
}

TEST(Isa, DivisionByZeroFaults) {
  Program p;
  p.loadi(R1, 1).loadi(R2, 0).div(R3, R1, R2).halt();
  auto m = make_single(std::move(p));
  const auto out = m.run();
  EXPECT_EQ(out.final_status, StepStatus::kFault);
  ASSERT_TRUE(out.fault.has_value());
  EXPECT_NE(out.fault->what.find("zero"), std::string::npos);
}

TEST(Isa, SharedOutOfBoundsFaults) {
  Program p;
  p.loadi(R1, 99).sread(R2, R1).halt();
  auto m = make_single(std::move(p), /*m=*/16);
  const auto out = m.run();
  EXPECT_EQ(out.final_status, StepStatus::kFault);
}

TEST(Isa, ShiftOutOfRangeFaults) {
  Program p;
  p.loadi(R1, 1).loadi(R2, 64).shl(R3, R1, R2).halt();
  auto m = make_single(std::move(p));
  EXPECT_EQ(m.run().final_status, StepStatus::kFault);
}

TEST(Isa, UndefinedLabelThrows) {
  Program p;
  p.jmp("nowhere");
  EXPECT_THROW(p.finalize(), std::runtime_error);
}

TEST(Isa, DuplicateLabelThrows) {
  Program p;
  p.label("a").nop();
  EXPECT_THROW(p.label("a"), std::runtime_error);
}

TEST(Isa, DisassemblyListingMentionsOpcodes) {
  Program p;
  p.loadi(R1, 3).label("x").sread(R2, R1).jnz(R2, "x").halt();
  p.finalize();
  const auto listing = p.listing();
  EXPECT_NE(listing.find("loadi"), std::string::npos);
  EXPECT_NE(listing.find("sread"), std::string::npos);
  EXPECT_NE(listing.find("x:"), std::string::npos);
}

// ------------------------------------------------ machine semantics -----

TEST(Machine, PidAndNprocsDifferPerProcessor) {
  Program p;
  p.pid(R1).nprocs(R2).halt();
  MachineConfig cfg{.n_processors = 8, .m_shared_cells = 1,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(p));
  ASSERT_TRUE(m.run().completed());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.reg(ProcId(i), R1), static_cast<Word>(i));
    EXPECT_EQ(m.reg(ProcId(i), R2), 8);
  }
}

TEST(Machine, ReadsSeePreStepValuesWithinOneStep) {
  // Two processors swap shared[0] and shared[1] simultaneously:
  // p0 reads shared[1] while p1 reads shared[0]; then they cross-write.
  // Correct synchronous semantics yield a swap with no temporary.
  Program p;
  p.pid(R1);
  p.loadi(R2, 1).sub(R2, R2, R1);  // other index = 1 - pid
  p.sread(R3, R2);                 // read other's cell (simultaneous)
  p.swrite(R1, R3);                // write own cell
  p.halt();
  MachineConfig cfg{.n_processors = 2, .m_shared_cells = 2,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(p));
  m.poke_shared(VarId(0), 111);
  m.poke_shared(VarId(1), 222);
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.shared(VarId(0)), 222);
  EXPECT_EQ(m.shared(VarId(1)), 111);
}

TEST(Machine, ErewDetectsConcurrentRead) {
  auto spec = programs::broadcast_read();
  MachineConfig cfg{.n_processors = 4, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(spec.program));
  const auto out = m.run();
  EXPECT_EQ(out.final_status, StepStatus::kConflictViolation);
  ASSERT_TRUE(out.conflict.has_value());
  EXPECT_EQ(out.conflict->var, VarId(0));
  EXPECT_FALSE(out.conflict->involves_write);
}

TEST(Machine, CrewAllowsConcurrentRead) {
  auto spec = programs::broadcast_read();
  MachineConfig cfg{.n_processors = 4, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrew};
  Machine m(cfg, std::move(spec.program));
  m.poke_shared(VarId(0), 77);
  ASSERT_TRUE(m.run().completed());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.reg(ProcId(i), R2), 77);
  }
}

TEST(Machine, CrewDetectsConcurrentWrite) {
  auto spec = programs::common_write(5);
  MachineConfig cfg{.n_processors = 4, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrew};
  Machine m(cfg, std::move(spec.program));
  const auto out = m.run();
  EXPECT_EQ(out.final_status, StepStatus::kConflictViolation);
  ASSERT_TRUE(out.conflict.has_value());
  EXPECT_TRUE(out.conflict->involves_write);
}

TEST(Machine, CrcwCommonAcceptsAgreeingWrites) {
  auto spec = programs::common_write(5);
  MachineConfig cfg{.n_processors = 4, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrcwCommon};
  Machine m(cfg, std::move(spec.program));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.shared(VarId(0)), 5);
}

TEST(Machine, CrcwCommonRejectsDisagreeingWrites) {
  auto spec = programs::pid_write();
  MachineConfig cfg{.n_processors = 4, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrcwCommon};
  Machine m(cfg, std::move(spec.program));
  EXPECT_EQ(m.run().final_status, StepStatus::kConflictViolation);
}

TEST(Machine, CrcwPriorityLowestPidWins) {
  auto spec = programs::pid_write();
  MachineConfig cfg{.n_processors = 6, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrcwPriority};
  Machine m(cfg, std::move(spec.program));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.shared(VarId(0)), 0);
}

TEST(Machine, CrcwMaxLargestValueWins) {
  auto spec = programs::pid_write();
  MachineConfig cfg{.n_processors = 6, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrcwMax};
  Machine m(cfg, std::move(spec.program));
  ASSERT_TRUE(m.run().completed());
  EXPECT_EQ(m.shared(VarId(0)), 5);
}

// One processor's access in a scripted step.
struct Scripted {
  enum Kind : Word { kIdle = 0, kRead = 1, kWrite = 2 };
  Word kind = kIdle;
  Word var = 0;
  Word value = 0;
};

constexpr std::uint64_t kScriptCells = 16;

// A machine whose processor p issues script[p] on one shared step. Each
// processor first loads its (var, value, kind) row from a table above the
// kScriptCells target cells (one exclusive read per field), then branches
// so that every read and write issues on the same step; readers load into
// R7. Target cell v starts out as 100 + v.
Machine scripted_machine(ConflictPolicy policy,
                         const std::vector<Scripted>& script) {
  Program p;
  p.pid(R1).muli(R2, R1, 3);
  p.sread(R3, R2, kScriptCells);
  p.sread(R4, R2, kScriptCells + 1);
  p.sread(R5, R2, kScriptCells + 2);
  p.addi(R6, R5, -Scripted::kRead).jz(R6, "read");
  p.addi(R6, R5, -Scripted::kWrite).jz(R6, "write");
  p.halt();
  p.label("read").nop().nop().sread(R7, R3).halt();
  p.label("write").swrite(R3, R4).halt();
  const auto n = static_cast<std::uint32_t>(script.size());
  MachineConfig cfg{.n_processors = n,
                    .m_shared_cells = kScriptCells + 3 * n,
                    .policy = policy};
  auto memory = std::make_unique<FlatMemory>(cfg.m_shared_cells);
  for (std::uint32_t v = 0; v < kScriptCells; ++v) {
    memory->poke(VarId(v), 100 + v);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::uint32_t>(kScriptCells + 3 * i);
    memory->poke(VarId(row), script[i].var);
    memory->poke(VarId(row + 1), script[i].value);
    memory->poke(VarId(row + 2), script[i].kind);
  }
  return Machine(cfg, std::move(p), std::move(memory));
}

struct ExpectedConflict {
  std::uint32_t var;
  std::uint32_t proc_a;
  std::uint32_t proc_b;
  bool involves_write;
};

void expect_conflict(ConflictPolicy policy,
                     const std::vector<Scripted>& script,
                     const ExpectedConflict& want) {
  SCOPED_TRACE(to_string(policy) + " conflict on var " +
               std::to_string(want.var));
  Machine m = scripted_machine(policy, script);
  const auto out = m.run();
  ASSERT_EQ(out.final_status, StepStatus::kConflictViolation);
  ASSERT_TRUE(out.conflict.has_value());
  EXPECT_EQ(out.conflict->var, VarId(want.var));
  EXPECT_EQ(out.conflict->proc_a, ProcId(want.proc_a));
  EXPECT_EQ(out.conflict->proc_b, ProcId(want.proc_b));
  EXPECT_EQ(out.conflict->involves_write, want.involves_write);
}

TEST(Machine, ConflictDiagnosticsAndCommittedValuesArePinned) {
  constexpr Word kR = Scripted::kRead;
  constexpr Word kW = Scripted::kWrite;
  const Scripted idle{};

  // EREW read-read: the first two readers of the variable, in processor
  // order; an exclusive read of another variable is no conflict.
  expect_conflict(ConflictPolicy::kErew,
                  {{kR, 2}, {kR, 5}, idle, {kR, 5}, {kR, 5}},
                  {5, 1, 3, false});
  // EREW read-write: the first reader and the first writer, even with a
  // second reader present.
  expect_conflict(ConflictPolicy::kErew,
                  {{kW, 1, 7}, {kR, 4}, {kW, 4, 8}, {kR, 4}},
                  {4, 1, 2, true});
  // CREW read-write: concurrent reads are fine, the write is not.
  expect_conflict(ConflictPolicy::kCrew,
                  {{kR, 3}, {kR, 3}, idle, {kW, 3, 9}, {kR, 1}, {kR, 1}},
                  {3, 0, 3, true});
  // Write-write under the exclusive-write policies: the first two
  // writers, even when they agree.
  const std::vector<Scripted> ww = {
      idle, {kW, 6, 10}, {kW, 2, 1}, {kW, 6, 10}, {kW, 6, 11}};
  expect_conflict(ConflictPolicy::kErew, ww, {6, 1, 3, true});
  expect_conflict(ConflictPolicy::kCrew, ww, {6, 1, 3, true});
  // kCrcwCommon: the first writer whose value differs from the first
  // writer's; agreeing writes and reads of a written variable pass, and
  // the lowest dissenting variable wins.
  expect_conflict(ConflictPolicy::kCrcwCommon,
                  {{kW, 9, 1}, {kW, 9, 2}, {kW, 1, 3}, {kW, 1, 3},
                   {kW, 2, 7}, {kW, 2, 7}, {kW, 2, 8}, {kW, 2, 9},
                   {kR, 2}},
                  {2, 4, 6, true});
  // Precedence: a read conflict on a higher variable beats a write-write
  // conflict on a lower one, and among read conflicts the lowest variable
  // wins even when a higher one's readers come first.
  expect_conflict(ConflictPolicy::kErew,
                  {{kW, 1, 1}, {kW, 1, 2}, {kR, 6}, {kR, 6}, {kR, 3},
                   {kR, 3}},
                  {3, 4, 5, false});

  // Committed values: kCrcwMax takes the largest value, kCrcwPriority
  // and kCrcwArbitrary the lowest processor's. A read of a written
  // variable sees the value before the step.
  const std::vector<Scripted> crcw = {
      {kR, 0}, {kW, 0, 5}, {kW, 0, 9}, {kW, 0, -4},
      {kW, 3, -7}, {kW, 3, -2}, {kR, 3}, {kW, 5, 0}};
  struct Committed {
    ConflictPolicy policy;
    Word var0;
    Word var3;
  };
  for (const Committed want : {Committed{ConflictPolicy::kCrcwMax, 9, -2},
                               Committed{ConflictPolicy::kCrcwPriority, 5, -7},
                               Committed{ConflictPolicy::kCrcwArbitrary, 5,
                                         -7}}) {
    SCOPED_TRACE(to_string(want.policy));
    Machine m = scripted_machine(want.policy, crcw);
    ASSERT_TRUE(m.run().completed());
    EXPECT_EQ(m.shared(VarId(0)), want.var0);
    EXPECT_EQ(m.shared(VarId(3)), want.var3);
    EXPECT_EQ(m.shared(VarId(5)), 0);
    EXPECT_EQ(m.shared(VarId(1)), 101);
    EXPECT_EQ(m.reg(ProcId(0), R7), 100);
    EXPECT_EQ(m.reg(ProcId(6), R7), 103);
  }
}

TEST(Machine, DeadMachineStaysDead) {
  auto spec = programs::broadcast_read();
  MachineConfig cfg{.n_processors = 2, .m_shared_cells = 1,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(spec.program));
  EXPECT_EQ(m.run().final_status, StepStatus::kConflictViolation);
  EXPECT_EQ(m.step().status, StepStatus::kFault);
}

TEST(Machine, RunStopsAtMaxSteps) {
  Program p;
  p.label("spin").jmp("spin");
  auto m = make_single(std::move(p));
  const auto out = m.run(100);
  EXPECT_EQ(out.final_status, StepStatus::kFault);
  EXPECT_EQ(out.steps, 100u);
}

// ----------------------------------------------------- program library --

class PrefixSumTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PrefixSumTest, MatchesSerialScan) {
  const std::uint32_t n = GetParam();
  auto spec = programs::prefix_sum(n);
  MachineConfig cfg{.n_processors = n, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(spec.program));
  util::Rng rng(1000 + n);
  std::vector<Word> input(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    input[i] = static_cast<Word>(rng.below(1000));
    m.poke_shared(VarId(i), input[i]);
  }
  const auto out = m.run();
  ASSERT_TRUE(out.completed()) << "n=" << n;
  Word acc = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    acc += input[i];
    EXPECT_EQ(m.shared(VarId(i)), acc) << "i=" << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 16u, 33u,
                                           64u, 100u, 128u));

class ReduceSumTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReduceSumTest, MatchesSerialSum) {
  const std::uint32_t n = GetParam();
  auto spec = programs::reduce_sum(n);
  MachineConfig cfg{.n_processors = n, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(spec.program));
  util::Rng rng(2000 + n);
  Word expected = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Word v = static_cast<Word>(rng.below(10000));
    expected += v;
    m.poke_shared(VarId(i), v);
  }
  ASSERT_TRUE(m.run().completed()) << "n=" << n;
  EXPECT_EQ(m.shared(VarId(0)), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSumTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 17u, 32u, 63u,
                                           64u, 129u));

class ListRankTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ListRankTest, RanksARandomList) {
  const std::uint32_t n = GetParam();
  auto spec = programs::list_rank(n);
  MachineConfig cfg{.n_processors = n, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrew};
  Machine m(cfg, std::move(spec.program));
  // Build a random list: order[k] is the k-th node from the head.
  util::Rng rng(3000 + n);
  const auto order = rng.permutation(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t node = order[k];
    const std::uint32_t succ = k + 1 < n ? order[k + 1] : node;  // tail loops
    m.poke_shared(VarId(node), succ);
    m.poke_shared(VarId(n + node), k + 1 < n ? 1 : 0);
  }
  ASSERT_TRUE(m.run().completed()) << "n=" << n;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t node = order[k];
    EXPECT_EQ(m.shared(VarId(n + node)), static_cast<Word>(n - 1 - k))
        << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListRankTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 9u, 16u, 31u, 64u,
                                           100u));

class OddEvenSortTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OddEvenSortTest, SortsRandomInput) {
  const std::uint32_t n = GetParam();
  auto spec = programs::odd_even_sort(n);
  MachineConfig cfg{.n_processors = n, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kErew};
  Machine m(cfg, std::move(spec.program));
  util::Rng rng(4000 + n);
  std::vector<Word> input(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    input[i] = static_cast<Word>(rng.below(500));
    m.poke_shared(VarId(i), input[i]);
  }
  ASSERT_TRUE(m.run(4'000'000).completed()) << "n=" << n;
  std::sort(input.begin(), input.end());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared(VarId(i)), input[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OddEvenSortTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 15u, 16u, 32u,
                                           50u));

class MatvecTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MatvecTest, MatchesSerialProduct) {
  const std::uint32_t N = GetParam();
  auto spec = programs::matvec(N);
  MachineConfig cfg{.n_processors = N, .m_shared_cells = spec.m_required,
                    .policy = ConflictPolicy::kCrew};
  Machine m(cfg, std::move(spec.program));
  util::Rng rng(5000 + N);
  std::vector<Word> A(static_cast<std::size_t>(N) * N);
  std::vector<Word> x(N);
  for (std::uint32_t i = 0; i < N * N; ++i) {
    A[i] = static_cast<Word>(rng.below(20)) - 10;
    m.poke_shared(VarId(i), A[i]);
  }
  for (std::uint32_t j = 0; j < N; ++j) {
    x[j] = static_cast<Word>(rng.below(20)) - 10;
    m.poke_shared(VarId(N * N + j), x[j]);
  }
  ASSERT_TRUE(m.run().completed()) << "N=" << N;
  for (std::uint32_t i = 0; i < N; ++i) {
    Word expect = 0;
    for (std::uint32_t j = 0; j < N; ++j) {
      expect += A[static_cast<std::size_t>(i) * N + j] * x[j];
    }
    EXPECT_EQ(m.shared(VarId(N * N + N + i)), expect) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatvecTest,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u, 24u));

// --------------------------------------------------------- traces -------

// Registry round-trip: every TraceFamily enumerator must have a
// to_string name and appear in all_trace_families() — the guard that
// keeps new families (like kZipfian/kWorkingSet) wired into sweeps,
// benches, and spec parsing rather than silently skipped.
TEST(Trace, FamilyRegistryRoundTrips) {
  const auto& all = all_trace_families();
  EXPECT_EQ(all.size(), kTraceFamilyCount);
  std::set<std::string> names;
  for (std::size_t i = 0; i < kTraceFamilyCount; ++i) {
    const auto family = static_cast<TraceFamily>(i);
    const std::string name = to_string(family);
    EXPECT_NE(name, "???") << "enumerator " << i << " missing a name";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate family name " << name;
    EXPECT_NE(std::find(all.begin(), all.end(), family), all.end())
        << name << " missing from all_trace_families()";
  }
  // The EREW-safe subset is a subset of the registry.
  for (const auto family : exclusive_trace_families()) {
    EXPECT_NE(std::find(all.begin(), all.end(), family), all.end());
  }
}

TEST(Trace, PermutationVariablesDistinct) {
  util::Rng rng(9);
  const auto batch =
      make_batch(TraceFamily::kPermutation, 64, 1024, rng);
  ASSERT_EQ(batch.size(), 64u);
  std::set<std::uint32_t> vars;
  for (const auto& a : batch) {
    vars.insert(a.var.value());
    EXPECT_LT(a.var.value(), 1024u);
  }
  EXPECT_EQ(vars.size(), 64u);
}

TEST(Trace, StrideWithUnitStrideIsContiguous) {
  util::Rng rng(9);
  TraceParams params;
  params.stride = 1;
  params.offset = 5;
  const auto batch = make_batch(TraceFamily::kStride, 16, 64, rng, params);
  for (std::uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(batch[p].var.value(), 5 + p);
  }
}

TEST(Trace, BitReversalDistinct) {
  util::Rng rng(9);
  const auto batch = make_batch(TraceFamily::kBitReversal, 32, 32, rng);
  std::set<std::uint32_t> vars;
  for (const auto& a : batch) {
    vars.insert(a.var.value());
  }
  EXPECT_EQ(vars.size(), 32u);
}

TEST(Trace, BroadcastAllReadVarZero) {
  util::Rng rng(9);
  const auto batch = make_batch(TraceFamily::kBroadcast, 8, 64, rng);
  for (const auto& a : batch) {
    EXPECT_EQ(a.var.value(), 0u);
    EXPECT_EQ(a.op, AccessOp::kRead);
  }
}

TEST(Trace, HotspotConcentratesAccesses) {
  util::Rng rng(9);
  TraceParams params;
  params.hotspot_fraction = 0.9;
  params.hotset_size = 2;
  int hot = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto batch =
        make_batch(TraceFamily::kHotspot, 100, 10'000, rng, params);
    for (const auto& a : batch) {
      hot += a.var.value() < 2 ? 1 : 0;
    }
  }
  // ~90% of 2000 accesses should be hot.
  EXPECT_GT(hot, 1500);
}

TEST(Trace, WriteFractionRespected) {
  util::Rng rng(9);
  TraceParams params;
  params.write_fraction = 1.0;
  auto batch = make_batch(TraceFamily::kPermutation, 64, 256, rng, params);
  for (const auto& a : batch) {
    EXPECT_EQ(a.op, AccessOp::kWrite);
  }
  params.write_fraction = 0.0;
  batch = make_batch(TraceFamily::kPermutation, 64, 256, rng, params);
  for (const auto& a : batch) {
    EXPECT_EQ(a.op, AccessOp::kRead);
  }
}

TEST(Trace, MultiStepTraceHasRequestedLength) {
  util::Rng rng(9);
  const auto trace = make_trace(TraceFamily::kUniform, 16, 64, 10, rng);
  EXPECT_EQ(trace.size(), 10u);
  for (const auto& batch : trace) {
    EXPECT_EQ(batch.size(), 16u);
  }
}

TEST(Trace, ZipfianSkewConcentratesOnHead) {
  util::Rng rng(9);
  TraceParams params;
  params.zipf_exponent = 1.4;
  int head = 0;
  int total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto batch =
        make_batch(TraceFamily::kZipfian, 100, 10'000, rng, params);
    for (const auto& a : batch) {
      ASSERT_LT(a.var.value(), 10'000u);
      head += a.var.value() < 100 ? 1 : 0;
      ++total;
    }
  }
  // At s = 1.4 the first 1% of the address space should draw well over
  // half the traffic; a uniform draw would land ~1% there.
  EXPECT_GT(head, total / 2);
}

TEST(Trace, ZipfianLowExponentApproachesUniform) {
  util::Rng rng(9);
  TraceParams params;
  params.zipf_exponent = 0.05;
  int head = 0;
  int total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto batch =
        make_batch(TraceFamily::kZipfian, 100, 10'000, rng, params);
    for (const auto& a : batch) {
      head += a.var.value() < 100 ? 1 : 0;
      ++total;
    }
  }
  // Near-zero skew: the 1% head should take nowhere near half.
  EXPECT_LT(head, total / 4);
}

TEST(Trace, WorkingSetRotatesItsWindow) {
  util::Rng rng(9);
  TraceParams params;
  params.working_set_size = 32;
  params.working_set_period = 4;
  params.working_set_fraction = 1.0;
  const std::uint64_t m = 100'000;
  const auto trace =
      make_trace(TraceFamily::kWorkingSet, 64, m, 12, rng, params);
  // With fraction 1.0 every access in one period lands in one 32-wide
  // window; successive periods use different (hash-placed) windows.
  std::set<std::uint64_t> bases;
  for (std::size_t s = 0; s < trace.size(); s += params.working_set_period) {
    std::uint64_t lo = m;
    for (const auto& a : trace[s]) {
      lo = std::min<std::uint64_t>(lo, a.var.value());
    }
    for (const auto& a : trace[s]) {
      ASSERT_LT(a.var.value() - lo, params.working_set_size);
    }
    bases.insert(lo);
  }
  EXPECT_GT(bases.size(), 1u) << "window never moved across periods";
}

TEST(Trace, DeterministicGivenSeed) {
  util::Rng rng_a(123);
  util::Rng rng_b(123);
  const auto a = make_trace(TraceFamily::kUniform, 32, 256, 5, rng_a);
  const auto b = make_trace(TraceFamily::kUniform, 32, 256, 5, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      EXPECT_EQ(a[s][i].var, b[s][i].var);
      EXPECT_EQ(a[s][i].op, b[s][i].op);
      EXPECT_EQ(a[s][i].value, b[s][i].value);
    }
  }
}

// ------------------------------------------------------ flat memory -----

TEST(FlatMemory, ReadsSeePreStepState) {
  FlatMemory mem(4);
  mem.poke(VarId(0), 10);
  const VarId reads[] = {VarId(0)};
  Word values[1] = {0};
  const VarWrite writes[] = {{VarId(0), 99}};
  mem.step(reads, values, writes);
  EXPECT_EQ(values[0], 10);       // read the pre-step value
  EXPECT_EQ(mem.peek(VarId(0)), 99);  // write committed after
}

TEST(FlatMemory, UnitTimePerStep) {
  FlatMemory mem(8);
  const VarId reads[] = {VarId(1), VarId(2), VarId(3)};
  Word values[3];
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.time, 1u);
  EXPECT_EQ(cost.work, 3u);
}

/// Serve `steps` steps through step() and as many through serve(), each
/// writing one variable and reading another.
void step_and_serve(MemorySystem& memory, std::uint64_t steps) {
  const VarId reads[] = {VarId(7)};
  Word values[1] = {0};
  PlanBuilder builder;
  ServeContext ctx;
  for (std::uint64_t s = 0; s < steps; ++s) {
    const VarWrite writes[] = {
        {VarId(static_cast<std::uint32_t>(s % 7)), static_cast<Word>(s + 1)}};
    memory.step(reads, values, writes);
    ctx.bind(values);
    memory.serve(builder.build(reads, writes, memory), ctx);
  }
}

// The engine step clock counts every step, whichever entry served it.
TEST(FlatMemory, StepClockCountsStepAndServeAlike) {
  FlatMemory mem(16);
  step_and_serve(mem, 5);
  EXPECT_EQ(mem.steps_served(), 10u);

  BufferSink sink;
  mem.snapshot(sink);
  FlatMemory restored(16);
  BufferSource source(sink.bytes());
  ASSERT_TRUE(restored.restore(source));
  EXPECT_EQ(restored.steps_served(), 10u);
  EXPECT_EQ(restored.peek(VarId(3)), mem.peek(VarId(3)));
}

// A cache serves its inner memory once per step, so the two clocks stay
// equal (fault onsets and scrub stamps compare against one clock).
TEST(FlatMemory, CacheAndTheMemoryItWrapsShareOneClock) {
  auto owned = std::make_unique<FlatMemory>(16);
  const FlatMemory& flat = *owned;
  cache::CachedMemory cached(std::move(owned), {.capacity = 4});
  step_and_serve(cached, 5);
  EXPECT_EQ(cached.steps_served(), 10u);
  EXPECT_EQ(flat.steps_served(), cached.steps_served());
}

}  // namespace
}  // namespace pramsim::pram
