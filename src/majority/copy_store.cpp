#include "majority/copy_store.hpp"

namespace pramsim::majority {

CopyStore::CopyStore(std::uint64_t m_vars, std::uint32_t redundancy)
    : m_vars_(m_vars), r_(redundancy), rows_(redundancy) {
  PRAMSIM_ASSERT(m_vars >= 1);
  PRAMSIM_ASSERT(redundancy >= 1 && redundancy <= 64);
}

Copy CopyStore::freshest(VarId var, std::uint64_t mask) const {
  PRAMSIM_ASSERT(mask != 0);
  const Copy* copies = rows_.find(var.index());
  if (copies == nullptr) {
    return Copy{};  // untouched row: every selected copy reads {0, 0}
  }
  Copy best;
  bool found = false;
  for (std::uint32_t i = 0; i < r_; ++i) {
    if ((mask >> i) & 1ULL) {
      if (!found || copies[i].stamp > best.stamp) {
        best = copies[i];
        found = true;
      }
    }
  }
  PRAMSIM_ASSERT(found);
  return best;
}

Copy CopyStore::ground_truth(VarId var) const {
  return freshest(var, r_ >= 64 ? ~0ULL : ((1ULL << r_) - 1));
}

void CopyStore::corrupt(VarId var, std::uint32_t copy,
                        pram::Word bogus_value) {
  PRAMSIM_ASSERT(var.index() < m_vars_ && copy < r_);
  row(var)[copy].value = bogus_value;
}

CopyStore::VoteOutcome CopyStore::vote(VarId var,
                                       std::span<const ModuleId> modules,
                                       std::uint64_t step,
                                       const pram::FaultHooks& hooks) const {
  PRAMSIM_ASSERT(modules.size() == r_);
  VoteOutcome outcome;
  const Copy* copies = rows_.find(var.index());  // one lookup, r ballots
  // r <= 64 candidates: count multiplicities quadratically, no allocation.
  Copy ballots[64];
  for (std::uint32_t i = 0; i < r_; ++i) {
    if (hooks.module_dead(modules[i], step)) {
      ++outcome.erased;
      continue;
    }
    Copy ballot = copies != nullptr ? copies[i] : Copy{};
    pram::Word stuck = 0;
    if (hooks.stuck_at(var.index(), i, step, stuck)) {
      ballot.value = stuck;  // the stamp it claims is whatever was stored
    }
    ballots[outcome.survivors++] = ballot;
  }
  if (outcome.survivors == 0) {
    return outcome;  // winner stays {0, 0}; caller flags uncorrectable
  }
  std::uint32_t best_count = 0;
  for (std::uint32_t i = 0; i < outcome.survivors; ++i) {
    std::uint32_t count = 0;
    for (std::uint32_t j = 0; j < outcome.survivors; ++j) {
      if (ballots[j].value == ballots[i].value &&
          ballots[j].stamp == ballots[i].stamp) {
        ++count;
      }
    }
    const bool wins =
        count > best_count ||
        (count == best_count &&
         (ballots[i].stamp > outcome.winner.stamp ||
          (ballots[i].stamp == outcome.winner.stamp &&
           ballots[i].value < outcome.winner.value)));
    if (wins) {
      best_count = count;
      outcome.winner = ballots[i];
    }
  }
  outcome.dissenting = outcome.survivors - best_count;
  return outcome;
}

std::uint32_t CopyStore::store_all(VarId var,
                                   std::span<const ModuleId> modules,
                                   pram::Word value, std::uint64_t stamp,
                                   std::uint64_t reroll, std::uint64_t step,
                                   const pram::FaultHooks& hooks,
                                   std::uint64_t& corrupt_stores) {
  PRAMSIM_ASSERT(modules.size() == r_);
  std::uint32_t dropped = 0;
  Copy* copies = nullptr;  // materialized lazily: a write whose every
                           // module is dead must leave the row untouched
  for (std::uint32_t i = 0; i < r_; ++i) {
    if (hooks.module_dead(modules[i], step)) {
      ++dropped;
      continue;
    }
    pram::Word committed = value;
    if (hooks.corrupt_write(var.index(), i, reroll, step, committed)) {
      ++corrupt_stores;
    }
    if (copies == nullptr) {
      copies = row(var);
    }
    copies[i] = Copy{committed, stamp};
  }
  return dropped;
}

std::uint32_t CopyStore::store_all_prepared(
    VarId var, std::span<const ModuleId> modules, pram::Word value,
    std::uint64_t stamp, std::uint64_t reroll, std::uint64_t step,
    const pram::FaultHooks& hooks, std::uint64_t& corrupt_stores) {
  PRAMSIM_ASSERT(modules.size() == r_);
  std::uint32_t dropped = 0;
  for (std::uint32_t i = 0; i < r_; ++i) {
    if (hooks.module_dead(modules[i], step)) {
      ++dropped;
      continue;
    }
    pram::Word committed = value;
    if (hooks.corrupt_write(var.index(), i, reroll, step, committed)) {
      ++corrupt_stores;
    }
    write_prepared(var, i, committed, stamp);
  }
  return dropped;
}

}  // namespace pramsim::majority
