#include "pram/machine.hpp"

#include <algorithm>
#include <unordered_map>
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
      private_(static_cast<std::size_t>(config.n_processors) *
                   config.private_cells,
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

void Machine::set_reg(ProcId proc, Reg r, Word value) {
  PRAMSIM_ASSERT(proc.value() < config_.n_processors && r < kNumRegisters);
  regs_[proc.index() * kNumRegisters + r] = value;
}

Word Machine::private_mem(ProcId proc, std::uint64_t addr) const {
  PRAMSIM_ASSERT(proc.value() < config_.n_processors &&
                 addr < config_.private_cells);
  return private_[proc.index() * config_.private_cells + addr];
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

  struct DeferredWrite {
    ProcId proc;
    VarId var;
    Word value;
  };
  std::vector<DeferredWrite> writes;

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
    Word* priv = &private_[static_cast<std::size_t>(p) * config_.private_cells];
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
        if (addr < 0 || static_cast<std::uint64_t>(addr) >=
                            config_.private_cells) {
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
          writes.push_back({proc, var, r[ins.r1]});
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

  // ---- phase 2: conflict detection & combining -----------------------
  // Count readers/writers per accessed variable.
  struct ReadInfo {
    int count = 0;
    ProcId first{};
    ProcId second{};
  };
  std::unordered_map<std::uint32_t, ReadInfo> readers;
  std::unordered_map<std::uint32_t, std::vector<DeferredWrite>> writers;
  for (const auto& acc : raw_batch_) {
    if (acc.op == AccessOp::kRead) {
      auto& info = readers[acc.var.value()];
      if (info.count == 0) {
        info.first = acc.proc;
      } else if (info.count == 1) {
        info.second = acc.proc;
      }
      ++info.count;
    }
  }
  for (const auto& w : writes) {
    writers[w.var.value()].push_back(w);
  }

  const ConflictPolicy policy = config_.policy;
  // Conflict scans abort on the first violating variable, so the scan
  // order picks WHICH conflict a failing program reports — canonicalize
  // it (lowest variable wins) instead of trusting hash order.
  std::vector<std::uint32_t> conflict_order;
  conflict_order.reserve(readers.size());
  // pramlint: ordered-fold (keys collected then sorted before the scan)
  for (const auto& [var, rinfo] : readers) {
    (void)rinfo;
    conflict_order.push_back(var);
  }
  std::sort(conflict_order.begin(), conflict_order.end());
  for (const auto var : conflict_order) {
    const ReadInfo& rinfo = readers.at(var);
    const bool multiple_readers = rinfo.count > 1;
    const auto wit = writers.find(var);
    const bool written = wit != writers.end();
    if (policy == ConflictPolicy::kErew && (multiple_readers || written)) {
      const ProcId other =
          written ? wit->second.front().proc : rinfo.second;
      return fail_conflict({VarId(var), rinfo.first, other, written});
    }
    if (policy == ConflictPolicy::kCrew && written) {
      // read+write of the same cell in one step violates exclusive write
      return fail_conflict(
          {VarId(var), rinfo.first, wit->second.front().proc, true});
    }
  }
  conflict_order.clear();
  // pramlint: ordered-fold (keys collected then sorted before the scan)
  for (const auto& [var, ws] : writers) {
    (void)ws;
    conflict_order.push_back(var);
  }
  std::sort(conflict_order.begin(), conflict_order.end());
  for (const auto var : conflict_order) {
    auto& ws = writers.at(var);
    if (ws.size() > 1) {
      if (policy == ConflictPolicy::kErew || policy == ConflictPolicy::kCrew) {
        return fail_conflict({VarId(var), ws[0].proc, ws[1].proc, true});
      }
      if (policy == ConflictPolicy::kCrcwCommon) {
        for (const auto& w : ws) {
          if (w.value != ws.front().value) {
            return fail_conflict({VarId(var), ws.front().proc, w.proc, true});
          }
        }
      }
    }
  }

  // Combine reads: one slot per distinct variable.
  std::unordered_map<std::uint32_t, std::size_t> read_slot;
  std::size_t raw_read_idx = 0;
  for (const auto& acc : raw_batch_) {
    if (acc.op != AccessOp::kRead) {
      continue;
    }
    auto [it, fresh] = read_slot.try_emplace(acc.var.value(),
                                             combined_reads_.size());
    if (fresh) {
      combined_reads_.push_back(acc.var);
    }
    pending_reads_[raw_read_idx].read_slot = it->second;
    ++raw_read_idx;
  }

  // Resolve concurrent writes to one committed value per variable. Each
  // variable's winner is computed from its own deferred list alone and
  // combined_writes_ is sorted by var below, so this fold is order-free.
  // pramlint: ordered-fold (per-var winners independent; output sorted)
  for (auto& [var, ws] : writers) {
    DeferredWrite winner = ws.front();
    for (const auto& w : ws) {
      switch (policy) {
        case ConflictPolicy::kCrcwMax:
          if (w.value > winner.value) {
            winner = w;
          }
          break;
        default:
          // common (all equal), arbitrary, priority, and the exclusive
          // policies: lowest processor id commits.
          if (w.proc < winner.proc) {
            winner = w;
          }
          break;
      }
    }
    combined_writes_.push_back({VarId(var), winner.value});
  }
  // Deterministic ordering for the memory system.
  std::sort(combined_writes_.begin(), combined_writes_.end(),
            [](const VarWrite& a, const VarWrite& b) { return a.var < b.var; });

  // ---- phase 3: serve the combined step as a plan ----------------------
  StepOutcome outcome;
  read_values_.assign(combined_reads_.size(), 0);
  if (!combined_reads_.empty() || !combined_writes_.empty()) {
    // Join the plan from the combining tables: request i serves combined
    // read i, write-only variables follow in write order, and a variable
    // both read and written (CRCW) is one request that carries the write.
    const auto n_reads = static_cast<std::uint32_t>(combined_reads_.size());
    requests_.clear();
    read_request_.clear();
    write_request_.clear();
    request_write_.assign(n_reads, AccessPlan::kNone);
    for (std::uint32_t i = 0; i < n_reads; ++i) {
      requests_.push_back({combined_reads_[i], AccessOp::kRead, true});
      read_request_.push_back(i);
    }
    for (std::uint32_t w = 0; w < combined_writes_.size(); ++w) {
      const VarId var = combined_writes_[w].var;
      const auto read = read_slot.find(var.value());
      auto req = static_cast<std::uint32_t>(requests_.size());
      if (read == read_slot.end()) {
        requests_.push_back({var, AccessOp::kWrite, false});
        request_write_.push_back(w);
      } else {
        req = static_cast<std::uint32_t>(read->second);
        requests_[req].op = AccessOp::kWrite;
        request_write_[req] = w;
      }
      write_request_.push_back(req);
    }
    plan_.reads = combined_reads_;
    plan_.writes = combined_writes_;
    plan_.requests = requests_;
    plan_.read_request = read_request_;
    plan_.write_request = write_request_;
    plan_.request_write = request_write_;
    grouper_.group(plan_, *memory_);
    ctx_.bind(read_values_);
    outcome.mem_cost = memory_->serve(plan_, ctx_);
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
