// The ideal n-processor P-RAM (Fig. 1 of the paper), with pluggable shared
// memory.
//
// Every step, each running processor executes one instruction in lock-step.
// Shared accesses are collected, checked against the configured conflict
// policy (EREW/CREW/CRCW), combined (concurrent reads deduplicated,
// concurrent writes resolved), joined into an AccessPlan and served by the
// attached MemorySystem's serve(plan, ctx) — either the ideal FlatMemory
// or one of the simulation schemes, which is exactly how the paper's
// "simulating machine" plugs underneath the P-RAM program.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pram/access_plan.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "pram/program.hpp"
#include "pram/serve_context.hpp"
#include "pram/types.hpp"
#include "util/bitset.hpp"

namespace pramsim::pram {

struct MachineConfig {
  std::uint32_t n_processors = 1;
  std::uint64_t m_shared_cells = 1;
  ConflictPolicy policy = ConflictPolicy::kErew;
  std::uint32_t private_cells = 4096;  ///< private memory per processor
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
  void set_reg(ProcId proc, Reg r, Word value);
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
    std::size_t read_slot;  ///< index into combined read vector
  };

  StepOutcome fail_conflict(ConflictInfo info);
  StepOutcome fail_fault(ProcId proc, std::uint64_t pc, std::string what);

  MachineConfig config_;
  Program program_;
  std::unique_ptr<MemorySystem> memory_;

  std::vector<Word> regs_;      // n * kNumRegisters
  std::vector<Word> private_;   // n * private_cells
  std::vector<std::uint64_t> pc_;
  util::DynamicBitset halted_;
  bool dead_ = false;  // violation or fault occurred; machine is stuck
  std::uint64_t steps_ = 0;
  std::uint64_t shared_accesses_ = 0;

  // per-step scratch (members to avoid reallocation)
  AccessBatch raw_batch_;
  std::vector<PendingRead> pending_reads_;
  std::vector<VarId> combined_reads_;
  std::vector<Word> read_values_;
  std::vector<VarWrite> combined_writes_;
  // The served plan's joins, built from the combining tables above; only
  // the grouping is shared with PlanBuilder.
  std::vector<PlanRequest> requests_;
  std::vector<std::uint32_t> read_request_;
  std::vector<std::uint32_t> write_request_;
  std::vector<std::uint32_t> request_write_;
  PlanGrouper grouper_;
  AccessPlan plan_;
  ServeContext ctx_;
};

}  // namespace pramsim::pram
