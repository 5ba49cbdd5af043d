#include "faults/faultable_memory.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/sorted_entries.hpp"

namespace pramsim::faults {

FaultableMemory::FaultableMemory(std::unique_ptr<pram::MemorySystem> inner,
                                 FaultSpec spec)
    : inner_(std::move(inner)),
      model_(spec, inner_ == nullptr ? 1 : inner_->num_modules()) {
  PRAMSIM_ASSERT(inner_ != nullptr);
  inner_injects_ = inner_->set_fault_hooks(&model_);
  for (const auto module : model_.dead_modules()) {
    onsets_.emplace_back(model_.module_onset(module), module.index());
  }
  std::sort(onsets_.begin(), onsets_.end());
}

void FaultableMemory::emit_onsets(std::uint64_t step) {
  if constexpr (obs::kEnabled) {
    if (observer() == nullptr) {
      return;
    }
    while (onset_cursor_ < onsets_.size() &&
           onsets_[onset_cursor_].first <= step) {
      obs_event(obs::EventKind::kFaultOnset, onsets_[onset_cursor_].second,
                0, onsets_[onset_cursor_].first);
      obs_count("fault.onsets");
      ++onset_cursor_;
    }
  } else {
    (void)step;
  }
}

ModuleId FaultableMemory::synthetic_module(VarId var) const {
  const std::uint32_t M = std::max(model_.n_modules(), 1u);
  return ModuleId(static_cast<std::uint32_t>(
      util::SplitMix64(var.index() * 0x9E3779B97F4A7C15ULL).next() % M));
}

pram::MemStepCost FaultableMemory::serve_degraded(
    const pram::AccessPlan& plan, pram::ServeContext& ctx,
    std::uint64_t step) {
  // Writes to dead synthetic modules drop; surviving stores may corrupt.
  degraded_writes_.clear();
  for (const auto& write : plan.writes) {
    if (model_.module_dead(synthetic_module(write.var), step)) {
      ++wrapper_stats_.writes_dropped;
      continue;
    }
    pram::VarWrite w = write;
    if (model_.corrupt_write(w.var.index(), 0, step, step, w.value)) {
      ++wrapper_stats_.corrupt_stores;
    }
    degraded_writes_.push_back(w);
  }
  const pram::MemStepCost cost = inner_->serve(
      builder_.build(plan.reads, degraded_writes_, *inner_), ctx);

  // Dead modules and stuck cells degrade the reads; any flags the inner
  // memory raised stay set.
  const std::span<pram::Word> read_values = ctx.read_values();
  if (ctx.flags().empty()) {
    ctx.enable_flags();
  }
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    ++wrapper_stats_.reads_served;
    if (model_.module_dead(synthetic_module(plan.reads[i]), step)) {
      read_values[i] = 0;
      ctx.flag_read(i);
      ++wrapper_stats_.uncorrectable;
      ++wrapper_stats_.erasures_skipped;
      ++wrapper_stats_.units_faulty;
      continue;
    }
    pram::Word stuck = 0;
    if (model_.stuck_at(plan.reads[i].index(), 0, step, stuck)) {
      read_values[i] = stuck;
      ++wrapper_stats_.units_faulty;
    }
  }
  return cost;
}

pram::MemStepCost FaultableMemory::serve(const pram::AccessPlan& plan,
                                         pram::ServeContext& ctx) {
  const std::uint64_t step = advance_step_clock();
  emit_onsets(step);
  const pram::MemStepCost cost = inner_injects_
                                     ? inner_->serve(plan, ctx)
                                     : serve_degraded(plan, ctx, step);

  // Oracle pass (reads observe pre-step state, so check before the
  // writes commit to the checker). Flagged reads are excluded from the
  // mismatch count — both injection regimes report exactly which reads
  // were served below threshold, so wrong_reads counts ONLY silent lies.
  const std::span<const std::uint8_t> flags = ctx.flags();
  const std::span<pram::Word> read_values = ctx.read_values();
  {
    obs::ScopedPhase timer(obs_timing(), obs::Phase::kOracle);
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      if (i < flags.size() && flags[i] != 0) {
        (void)checker_.check_read(plan.reads[i],
                                  checker_.expected(plan.reads[i]));
        continue;  // counted as checked-consistent: the loss was flagged
      }
      if (!checker_.check_read(plan.reads[i], read_values[i])) {
        ++wrapper_stats_.wrong_reads;
        obs_event(obs::EventKind::kWrongRead, plan.reads[i].index(), 0,
                  read_values[i], checker_.expected(plan.reads[i]));
        obs_count("oracle.wrong_reads");
      }
    }
  }
  for (const auto& write : plan.writes) {
    checker_.record_write(write.var, write.value);
  }
  return cost;
}

pram::Word FaultableMemory::peek(VarId var) const {
  if (!inner_injects_) {
    if (model_.module_dead(synthetic_module(var), steps_served())) {
      return 0;
    }
    pram::Word stuck = 0;
    if (model_.stuck_at(var.index(), 0, steps_served(), stuck)) {
      return stuck;
    }
  }
  return inner_->peek(var);
}

void FaultableMemory::poke(VarId var, pram::Word value) {
  checker_.record_write(var, value);
  if (!inner_injects_) {
    const std::uint64_t step = steps_served();
    if (model_.module_dead(synthetic_module(var), step)) {
      ++wrapper_stats_.writes_dropped;
      return;
    }
    if (model_.corrupt_write(var.index(), 0, step, step, value)) {
      ++wrapper_stats_.corrupt_stores;
    }
  }
  inner_->poke(var, value);
}

pram::ScrubResult FaultableMemory::scrub(std::uint64_t budget) {
  // Replica-level schemes repair themselves; wrapper-level injection has
  // a single synthetic copy per variable — nothing to rebuild from — and
  // the un-hooked inner scheme's scrub() is a no-op by contract.
  return inner_->scrub(budget);
}

pram::ReliabilityStats FaultableMemory::reliability() const {
  pram::ReliabilityStats merged = wrapper_stats_;
  merged.merge(inner_->reliability());
  return merged;
}

void FaultableMemory::snapshot_body(pram::SnapshotSink& sink) {
  inner_->snapshot(sink);

  const auto ideal = util::sorted_entries(checker_.ideal());
  put_u64(sink, ideal.size());
  for (const auto& [var, value] : ideal) {
    put_u64(sink, var);
    put_word(sink, *value);
  }
}

bool FaultableMemory::restore_body(pram::SnapshotSource& source) {
  if (!inner_->restore(source)) {
    return false;
  }
  // The oracle image arrives with strictly ascending variables, as
  // snapshot_body writes it; a repeated or descending variable is a
  // forged frame.
  checker_.reset();
  const std::uint64_t m = inner_->size();
  std::uint64_t count = 0;
  if (!get_u64(source, count) || count > m) {
    return false;
  }
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t var = 0;
    pram::Word value = 0;
    if (!get_ascending_key(source, next, m, var) ||
        !get_word(source, value)) {
      return false;
    }
    checker_.record_write(VarId(static_cast<std::uint32_t>(var)), value);
  }
  onset_cursor_ = 0;
  return true;
}

}  // namespace pramsim::faults
