// The ideal n-processor P-RAM (Fig. 1 of the paper), with pluggable shared
// memory.
//
// Every step, each running processor executes one instruction in lock-step.
// Shared accesses are collected and combined per variable in one table
// (concurrent reads deduplicated, concurrent writes resolved by the
// configured policy), checked against that policy (EREW/CREW/CRCW), and
// handed to PlanBuilder::build(reads, writes, memory), the plan path every
// caller shares. The attached MemorySystem serves the plan through
// serve(plan, ctx) — either the ideal FlatMemory or one of the simulation
// schemes, which is exactly how the paper's "simulating machine" plugs
// underneath the P-RAM program.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "pram/program.hpp"
#include "pram/serve_context.hpp"
#include "pram/types.hpp"
#include "util/bitset.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::pram {

struct MachineConfig {
  std::uint32_t n_processors = 1;
  std::uint64_t m_shared_cells = 1;
  ConflictPolicy policy = ConflictPolicy::kErew;
};

enum class StepStatus : std::uint8_t {
  kOk,                 ///< step executed
  kAllHalted,          ///< nothing ran; machine already finished
  kConflictViolation,  ///< access pattern violated the conflict policy
  kFault,              ///< runtime fault (div by zero, OOB, bad pc, ...)
};

/// Diagnostic for a conflict-policy violation.
struct ConflictInfo {
  VarId var;
  ProcId proc_a;
  ProcId proc_b;
  bool involves_write = false;
  [[nodiscard]] std::string to_string() const;
};

/// Diagnostic for a processor fault.
struct FaultInfo {
  ProcId proc;
  std::uint64_t pc = 0;
  std::string what;
};

struct StepOutcome {
  StepStatus status = StepStatus::kOk;
  std::optional<ConflictInfo> conflict;
  std::optional<FaultInfo> fault;
  MemStepCost mem_cost;  ///< simulating-machine cost of this step's accesses
};

struct RunOutcome {
  StepStatus final_status = StepStatus::kOk;
  std::uint64_t steps = 0;            ///< P-RAM steps executed
  std::uint64_t mem_time = 0;         ///< total simulating-machine time
  std::uint64_t shared_accesses = 0;  ///< total shared reads+writes issued
  std::optional<ConflictInfo> conflict;
  std::optional<FaultInfo> fault;
  [[nodiscard]] bool completed() const {
    return final_status == StepStatus::kAllHalted;
  }
};

class Machine {
 public:
  /// Private memory words per processor.
  static constexpr std::uint32_t kPrivateCells = 4096;

  /// Takes ownership of the memory system; program must be finalized (or
  /// finalizable: finalize() is invoked here).
  Machine(MachineConfig config, Program program,
          std::unique_ptr<MemorySystem> memory);

  /// Convenience: ideal P-RAM with flat unit-time memory.
  Machine(MachineConfig config, Program program);

  /// Execute one synchronous P-RAM step.
  StepOutcome step();

  /// Run until all processors halt, a violation/fault occurs, or
  /// `max_steps` is exceeded (reported as kFault).
  RunOutcome run(std::uint64_t max_steps = 1'000'000);

  // ----- state inspection / setup -----
  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] bool all_halted() const;
  [[nodiscard]] std::uint64_t steps_executed() const { return steps_; }

  [[nodiscard]] Word reg(ProcId proc, Reg r) const;
  [[nodiscard]] Word private_mem(ProcId proc, std::uint64_t addr) const;

  [[nodiscard]] Word shared(VarId var) const { return memory_->peek(var); }
  void poke_shared(VarId var, Word value) { memory_->poke(var, value); }
  [[nodiscard]] MemorySystem& memory() { return *memory_; }

  /// Accesses issued by the most recent step (after CR/CW combining the
  /// raw per-processor batch is in `last_raw_batch`).
  [[nodiscard]] const AccessBatch& last_raw_batch() const { return raw_batch_; }

 private:
  struct PendingRead {
    ProcId proc;
    Reg dst;
    std::uint32_t read_slot;  ///< index into combined_reads_
  };

  /// One distinct variable of the step. raw_batch_ is in ascending
  /// processor order with at most one access per processor, so the
  /// first reader or writer a record sees is the lowest-numbered one.
  struct VarAccesses {
    VarId var;
    std::uint32_t readers = 0;
    std::uint32_t writers = 0;
    std::uint32_t read_slot = 0;  ///< index into combined_reads_
    ProcId first_reader{};
    ProcId second_reader{};
    ProcId first_writer{};
    ProcId second_writer{};
    /// The first writer whose value differs from first_writer's (valid
    /// when `dissent`; not tracked under kCrcwMax).
    ProcId dissenter{};
    bool dissent = false;
    Word value = 0;  ///< the value the policy commits
  };

  StepOutcome fail_conflict(ConflictInfo info);
  StepOutcome fail_fault(ProcId proc, std::uint64_t pc, std::string what);

  MachineConfig config_;
  Program program_;
  std::unique_ptr<MemorySystem> memory_;

  std::vector<Word> regs_;      // n * kNumRegisters
  std::vector<Word> private_;   // n * kPrivateCells
  std::vector<std::uint64_t> pc_;
  util::DynamicBitset halted_;
  bool dead_ = false;  // violation or fault occurred; machine is stuck
  std::uint64_t steps_ = 0;
  std::uint64_t shared_accesses_ = 0;

  // per-step scratch (members to avoid reallocation)
  AccessBatch raw_batch_;
  std::vector<PendingRead> pending_reads_;
  /// var -> vars_ index.
  util::ScratchMap<std::uint32_t, std::uint32_t> var_index_;
  std::vector<VarAccesses> vars_;
  std::vector<VarId> combined_reads_;  ///< first-appearance order
  std::vector<Word> read_values_;
  std::vector<VarWrite> combined_writes_;  ///< ascending var order
  PlanBuilder builder_;
  ServeContext ctx_;
};

}  // namespace pramsim::pram
