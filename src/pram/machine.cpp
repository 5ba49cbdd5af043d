#include "pram/machine.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace pramsim::pram {

namespace {

// Register arithmetic wraps in two's complement, like the machine word it
// models: a word read back from faulted storage can hold any bit pattern,
// and signed overflow must not be undefined behavior.
Word wrap_add(Word a, Word b) {
  return static_cast<Word>(static_cast<std::uint64_t>(a) +
                           static_cast<std::uint64_t>(b));
}
Word wrap_sub(Word a, Word b) {
  return static_cast<Word>(static_cast<std::uint64_t>(a) -
                           static_cast<std::uint64_t>(b));
}
Word wrap_mul(Word a, Word b) {
  return static_cast<Word>(static_cast<std::uint64_t>(a) *
                           static_cast<std::uint64_t>(b));
}

}  // namespace

std::string ConflictInfo::to_string() const {
  return "conflict on var " + std::to_string(var.value()) + " between P" +
         std::to_string(proc_a.value()) + " and P" +
         std::to_string(proc_b.value()) +
         (involves_write ? " (write)" : " (read)");
}

Machine::Machine(MachineConfig config, Program program,
                 std::unique_ptr<MemorySystem> memory)
    : config_(config),
      program_(std::move(program)),
      memory_(std::move(memory)),
      regs_(static_cast<std::size_t>(config.n_processors) * kNumRegisters, 0),
      private_(static_cast<std::size_t>(config.n_processors) * kPrivateCells,
               0),
      pc_(config.n_processors, 0),
      halted_(config.n_processors) {
  PRAMSIM_ASSERT(config_.n_processors >= 1);
  PRAMSIM_ASSERT(memory_ != nullptr);
  PRAMSIM_ASSERT_MSG(memory_->size() >= config_.m_shared_cells,
                     "memory system smaller than configured shared memory");
  program_.finalize();
}

Machine::Machine(MachineConfig config, Program program)
    : Machine(config, std::move(program),
              std::make_unique<FlatMemory>(config.m_shared_cells)) {}

bool Machine::all_halted() const {
  return halted_.count() == config_.n_processors;
}

Word Machine::reg(ProcId proc, Reg r) const {
  PRAMSIM_ASSERT(proc.value() < config_.n_processors && r < kNumRegisters);
  return regs_[proc.index() * kNumRegisters + r];
}

Word Machine::private_mem(ProcId proc, std::uint64_t addr) const {
  PRAMSIM_ASSERT(proc.value() < config_.n_processors &&
                 addr < kPrivateCells);
  return private_[proc.index() * kPrivateCells + addr];
}

StepOutcome Machine::fail_conflict(ConflictInfo info) {
  dead_ = true;
  StepOutcome outcome;
  outcome.status = StepStatus::kConflictViolation;
  outcome.conflict = std::move(info);
  return outcome;
}

StepOutcome Machine::fail_fault(ProcId proc, std::uint64_t pc,
                                std::string what) {
  dead_ = true;
  StepOutcome outcome;
  outcome.status = StepStatus::kFault;
  outcome.fault = FaultInfo{proc, pc, std::move(what)};
  return outcome;
}

StepOutcome Machine::step() {
  if (dead_) {
    return fail_fault(ProcId(0), 0, "machine is dead (prior violation/fault)");
  }
  if (all_halted()) {
    StepOutcome outcome;
    outcome.status = StepStatus::kAllHalted;
    return outcome;
  }

  raw_batch_.clear();
  pending_reads_.clear();
  combined_reads_.clear();
  combined_writes_.clear();

  // ---- phase 1: fetch/decode/execute-local, collect shared accesses ----
  for (std::uint32_t p = 0; p < config_.n_processors; ++p) {
    if (halted_.test(p)) {
      continue;
    }
    const ProcId proc(p);
    const std::uint64_t pc = pc_[p];
    if (pc >= program_.size()) {
      return fail_fault(proc, pc, "pc out of program bounds");
    }
    const Instruction& ins = program_.at(pc);
    Word* r = &regs_[static_cast<std::size_t>(p) * kNumRegisters];
    Word* priv = &private_[static_cast<std::size_t>(p) * kPrivateCells];
    std::uint64_t next_pc = pc + 1;

    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        halted_.set(p);
        next_pc = pc;
        break;
      case Opcode::kLoadImm:
        r[ins.r1] = ins.imm;
        break;
      case Opcode::kMov:
        r[ins.r1] = r[ins.r2];
        break;
      case Opcode::kAdd:
        r[ins.r1] = wrap_add(r[ins.r2], r[ins.r3]);
        break;
      case Opcode::kSub:
        r[ins.r1] = wrap_sub(r[ins.r2], r[ins.r3]);
        break;
      case Opcode::kMul:
        r[ins.r1] = wrap_mul(r[ins.r2], r[ins.r3]);
        break;
      case Opcode::kDiv:
        if (r[ins.r3] == 0) {
          return fail_fault(proc, pc, "division by zero");
        }
        r[ins.r1] = r[ins.r2] / r[ins.r3];
        break;
      case Opcode::kMod:
        if (r[ins.r3] == 0) {
          return fail_fault(proc, pc, "modulo by zero");
        }
        r[ins.r1] = r[ins.r2] % r[ins.r3];
        break;
      case Opcode::kMin:
        r[ins.r1] = std::min(r[ins.r2], r[ins.r3]);
        break;
      case Opcode::kMax:
        r[ins.r1] = std::max(r[ins.r2], r[ins.r3]);
        break;
      case Opcode::kAnd:
        r[ins.r1] = r[ins.r2] & r[ins.r3];
        break;
      case Opcode::kOr:
        r[ins.r1] = r[ins.r2] | r[ins.r3];
        break;
      case Opcode::kXor:
        r[ins.r1] = r[ins.r2] ^ r[ins.r3];
        break;
      case Opcode::kShl:
      case Opcode::kShr: {
        const Word amount = r[ins.r3];
        if (amount < 0 || amount > 63) {
          return fail_fault(proc, pc, "shift amount out of range");
        }
        if (ins.op == Opcode::kShl) {
          r[ins.r1] = static_cast<Word>(static_cast<std::uint64_t>(r[ins.r2])
                                        << amount);
        } else {
          r[ins.r1] = r[ins.r2] >> amount;  // arithmetic shift
        }
        break;
      }
      case Opcode::kSlt:
        r[ins.r1] = r[ins.r2] < r[ins.r3] ? 1 : 0;
        break;
      case Opcode::kSle:
        r[ins.r1] = r[ins.r2] <= r[ins.r3] ? 1 : 0;
        break;
      case Opcode::kSeq:
        r[ins.r1] = r[ins.r2] == r[ins.r3] ? 1 : 0;
        break;
      case Opcode::kSne:
        r[ins.r1] = r[ins.r2] != r[ins.r3] ? 1 : 0;
        break;
      case Opcode::kAddImm:
        r[ins.r1] = wrap_add(r[ins.r2], ins.imm);
        break;
      case Opcode::kMulImm:
        r[ins.r1] = wrap_mul(r[ins.r2], ins.imm);
        break;
      case Opcode::kJmp:
        next_pc = static_cast<std::uint64_t>(ins.imm);
        break;
      case Opcode::kJz:
        if (r[ins.r1] == 0) {
          next_pc = static_cast<std::uint64_t>(ins.imm);
        }
        break;
      case Opcode::kJnz:
        if (r[ins.r1] != 0) {
          next_pc = static_cast<std::uint64_t>(ins.imm);
        }
        break;
      case Opcode::kLoadLocal:
      case Opcode::kStoreLocal: {
        const Word addr = r[ins.r2] + ins.imm;
        if (addr < 0 || static_cast<std::uint64_t>(addr) >= kPrivateCells) {
          return fail_fault(proc, pc, "private memory address out of range");
        }
        if (ins.op == Opcode::kLoadLocal) {
          r[ins.r1] = priv[addr];
        } else {
          priv[addr] = r[ins.r1];
        }
        break;
      }
      case Opcode::kReadShared:
      case Opcode::kWriteShared: {
        const Word addr = r[ins.r2] + ins.imm;
        if (addr < 0 ||
            static_cast<std::uint64_t>(addr) >= config_.m_shared_cells) {
          return fail_fault(proc, pc, "shared memory address out of range");
        }
        const VarId var(static_cast<std::uint32_t>(addr));
        if (ins.op == Opcode::kReadShared) {
          raw_batch_.push_back({proc, AccessOp::kRead, var, 0});
          pending_reads_.push_back({proc, ins.r1, 0});  // slot set below
        } else {
          raw_batch_.push_back({proc, AccessOp::kWrite, var, r[ins.r1]});
        }
        break;
      }
      case Opcode::kPid:
        r[ins.r1] = static_cast<Word>(p);
        break;
      case Opcode::kNprocs:
        r[ins.r1] = static_cast<Word>(config_.n_processors);
        break;
    }
    pc_[p] = next_pc;
  }

  // ---- phase 2: combine per variable, then check the policy ----------
  const ConflictPolicy policy = config_.policy;
  var_index_.clear();
  var_index_.reserve(raw_batch_.size());
  vars_.clear();
  std::size_t raw_read = 0;
  for (const Access& acc : raw_batch_) {
    const auto [index, fresh] = var_index_.try_emplace(
        acc.var.value(), static_cast<std::uint32_t>(vars_.size()));
    if (fresh) {
      vars_.push_back({.var = acc.var});
    }
    VarAccesses& rec = vars_[*index];
    if (acc.op == AccessOp::kRead) {
      if (rec.readers == 0) {
        rec.first_reader = acc.proc;
        rec.read_slot = static_cast<std::uint32_t>(combined_reads_.size());
        combined_reads_.push_back(acc.var);
      } else if (rec.readers == 1) {
        rec.second_reader = acc.proc;
      }
      ++rec.readers;
      pending_reads_[raw_read++].read_slot = rec.read_slot;
      continue;
    }
    if (rec.writers == 0) {
      // Every policy but kCrcwMax commits the lowest processor's value.
      rec.first_writer = acc.proc;
      rec.value = acc.value;
    } else {
      if (rec.writers == 1) {
        rec.second_writer = acc.proc;
      }
      if (policy == ConflictPolicy::kCrcwMax) {
        rec.value = std::max(rec.value, acc.value);
      } else if (!rec.dissent && acc.value != rec.value) {
        rec.dissent = true;
        rec.dissenter = acc.proc;
      }
    }
    ++rec.writers;
  }

  // A failing step reports its lowest violating variable, read-involved
  // violations before write-write ones.
  const bool exclusive_write =
      policy == ConflictPolicy::kErew || policy == ConflictPolicy::kCrew;
  const VarAccesses* read_conflict = nullptr;
  const VarAccesses* write_conflict = nullptr;
  for (const VarAccesses& rec : vars_) {
    const bool read_violation =
        rec.readers > 0 &&
        ((policy == ConflictPolicy::kErew && rec.readers > 1) ||
         (exclusive_write && rec.writers > 0));
    const bool write_violation =
        rec.writers > 1 &&
        (exclusive_write ||
         (policy == ConflictPolicy::kCrcwCommon && rec.dissent));
    if (read_violation &&
        (read_conflict == nullptr || rec.var < read_conflict->var)) {
      read_conflict = &rec;
    }
    if (write_violation &&
        (write_conflict == nullptr || rec.var < write_conflict->var)) {
      write_conflict = &rec;
    }
    if (rec.writers > 0) {
      combined_writes_.push_back({rec.var, rec.value});
    }
  }
  if (read_conflict != nullptr) {
    const VarAccesses& rec = *read_conflict;
    const bool written = rec.writers > 0;
    return fail_conflict({rec.var, rec.first_reader,
                          written ? rec.first_writer : rec.second_reader,
                          written});
  }
  if (write_conflict != nullptr) {
    const VarAccesses& rec = *write_conflict;
    return fail_conflict({rec.var, rec.first_writer,
                          exclusive_write ? rec.second_writer : rec.dissenter,
                          true});
  }
  std::sort(combined_writes_.begin(), combined_writes_.end(),
            [](const VarWrite& a, const VarWrite& b) { return a.var < b.var; });

  // ---- phase 3: serve the combined step as a plan ----------------------
  StepOutcome outcome;
  read_values_.assign(combined_reads_.size(), 0);
  if (!raw_batch_.empty()) {
    const AccessPlan& plan =
        builder_.build(combined_reads_, combined_writes_, *memory_);
    ctx_.bind(read_values_);
    outcome.mem_cost = memory_->serve(plan, ctx_);
    shared_accesses_ += raw_batch_.size();
  }
  for (const auto& pr : pending_reads_) {
    regs_[pr.proc.index() * kNumRegisters + pr.dst] =
        read_values_[pr.read_slot];
  }

  ++steps_;
  outcome.status = StepStatus::kOk;
  return outcome;
}

RunOutcome Machine::run(std::uint64_t max_steps) {
  RunOutcome out;
  while (out.steps < max_steps) {
    const StepOutcome step_outcome = step();
    if (step_outcome.status == StepStatus::kAllHalted) {
      out.final_status = StepStatus::kAllHalted;
      out.shared_accesses = shared_accesses_;
      return out;
    }
    if (step_outcome.status != StepStatus::kOk) {
      out.final_status = step_outcome.status;
      out.conflict = step_outcome.conflict;
      out.fault = step_outcome.fault;
      out.shared_accesses = shared_accesses_;
      return out;
    }
    ++out.steps;
    out.mem_time += step_outcome.mem_cost.time;
  }
  out.final_status = StepStatus::kFault;
  out.fault = FaultInfo{ProcId(0), 0, "max_steps exceeded"};
  out.shared_accesses = shared_accesses_;
  return out;
}

}  // namespace pramsim::pram
