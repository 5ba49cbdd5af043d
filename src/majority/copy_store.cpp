#include "majority/copy_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace pramsim::majority {

CopyStore::CopyStore(std::uint64_t m_vars, std::uint32_t redundancy,
                     std::uint32_t region_words)
    : m_vars_(m_vars),
      r_(redundancy),
      w_(region_words),
      n_regions_((m_vars + region_words - 1) / region_words),
      rows_(static_cast<std::size_t>(redundancy) * region_words) {
  PRAMSIM_ASSERT(m_vars >= 1);
  PRAMSIM_ASSERT(redundancy >= 1 && redundancy <= 64);
  PRAMSIM_ASSERT(region_words >= 1);
}

Copy CopyStore::freshest(VarId var, std::uint64_t mask) const {
  PRAMSIM_ASSERT(mask != 0);
  const Copy* col = column(var);
  if (col == nullptr) {
    return Copy{};  // untouched region: every selected copy reads {0, 0}
  }
  Copy best;
  bool found = false;
  for (std::uint32_t i = 0; i < r_; ++i) {
    if ((mask >> i) & 1ULL) {
      const Copy& candidate = col[static_cast<std::size_t>(i) * w_];
      if (!found || candidate.stamp > best.stamp) {
        best = candidate;
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
  row(region_of(var))[static_cast<std::size_t>(copy) * w_ +
                      var.index() % w_]
      .value = bogus_value;
}

CopyStore::VoteOutcome CopyStore::vote(VarId var,
                                       std::span<const ModuleId> modules,
                                       std::uint64_t step,
                                       const pram::FaultHooks& hooks) const {
  PRAMSIM_ASSERT(modules.size() == r_);
  VoteOutcome outcome;
  const Copy* col = column(var);  // one row lookup for all r ballots
  // r <= 64 candidates: count multiplicities quadratically, no allocation.
  Copy ballots[64];
  for (std::uint32_t i = 0; i < r_; ++i) {
    if (hooks.module_dead(modules[i], step)) {
      ++outcome.erased;
      continue;
    }
    Copy ballot = col != nullptr ? col[static_cast<std::size_t>(i) * w_]
                                 : Copy{};
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

std::int32_t CopyStore::vote_region(std::uint64_t region,
                                    std::uint64_t live_mask,
                                    std::uint32_t* dissenting) const {
  PRAMSIM_ASSERT(region < n_regions_);
  live_mask &= r_ >= 64 ? ~0ULL : ((1ULL << r_) - 1);
  if (dissenting != nullptr) {
    *dissenting = 0;
  }
  const auto live = static_cast<std::uint32_t>(std::popcount(live_mask));
  if (live == 0) {
    return kNoRegionMajority;  // no survivors: caller flags uncorrectable
  }
  const Copy* data = rows_.find(region);
  if (data == nullptr) {
    // Untouched region: every live copy reads the initial {0, 0} span —
    // unanimous by definition; the lowest live copy represents it.
    return std::countr_zero(live_mask);
  }
  const std::size_t slice_bytes = sizeof(Copy) * w_;
  const std::uint32_t majority = live / 2 + 1;
  // Only the first live - majority + 1 live copies can lead a strict
  // majority (every later baseline was already compared against them),
  // so the candidate loop is bounded exactly like hailburst's.
  std::uint32_t considered = 0;
  for (std::uint32_t i = 0; i < r_ && considered <= live - majority; ++i) {
    if (((live_mask >> i) & 1ULL) == 0) {
      continue;
    }
    ++considered;
    const Copy* base = data + static_cast<std::size_t>(i) * w_;
    std::uint32_t matches = 1;
    std::uint32_t remaining = live - considered;  // live copies after i
    for (std::uint32_t j = i + 1; j < r_; ++j) {
      if (((live_mask >> j) & 1ULL) == 0) {
        continue;
      }
      if (std::memcmp(base, data + static_cast<std::size_t>(j) * w_,
                      slice_bytes) == 0) {
        ++matches;
        if (dissenting == nullptr && matches >= majority) {
          return static_cast<std::int32_t>(i);  // early exit: majority holds
        }
      }
      --remaining;
      if (matches + remaining < majority) {
        break;  // this baseline can no longer reach a strict majority
      }
    }
    if (matches >= majority) {
      if (dissenting != nullptr) {
        *dissenting = live - matches;
      }
      return static_cast<std::int32_t>(i);
    }
  }
  return kNoRegionMajority;
}

void CopyStore::copy_region(std::uint64_t region, std::uint32_t from,
                            std::uint32_t to) {
  PRAMSIM_ASSERT(region < n_regions_ && from < r_ && to < r_);
  if (from == to) {
    return;
  }
  Copy* data = rows_.find(region);
  if (data == nullptr) {
    return;  // untouched: all copies already read the initial span
  }
  std::memcpy(data + static_cast<std::size_t>(to) * w_,
              data + static_cast<std::size_t>(from) * w_, sizeof(Copy) * w_);
}

std::uint32_t CopyStore::store_all(VarId var,
                                   std::span<const ModuleId> modules,
                                   pram::Word value, std::uint64_t stamp,
                                   std::uint64_t reroll, std::uint64_t step,
                                   const pram::FaultHooks& hooks,
                                   std::uint64_t& corrupt_stores) {
  PRAMSIM_ASSERT(modules.size() == r_);
  std::uint32_t dropped = 0;
  Copy* col = nullptr;  // materialized lazily: a write whose every module
                        // is dead must leave the region untouched
  for (std::uint32_t i = 0; i < r_; ++i) {
    if (hooks.module_dead(modules[i], step)) {
      ++dropped;
      continue;
    }
    pram::Word committed = value;
    if (hooks.corrupt_write(var.index(), i, reroll, step, committed)) {
      ++corrupt_stores;
    }
    if (col == nullptr) {
      col = row(region_of(var)) + var.index() % w_;
    }
    col[static_cast<std::size_t>(i) * w_] = Copy{committed, stamp};
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
