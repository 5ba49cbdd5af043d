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

pram::MemStepCost FaultableMemory::step(std::span<const VarId> reads,
                                        std::span<pram::Word> read_values,
                                        std::span<const pram::VarWrite> writes) {
  const std::uint64_t step = advance_step_clock();
  emit_onsets(step);
  pram::MemStepCost cost;
  // Reads flagged as known-bad (dead module / under-threshold block)
  // this step: excluded from the silent-wrong count — a flagged loss is
  // an outage, not a lie. Held in flagged_ so serve()-path callers can
  // observe the wrapper's outage view via flagged_reads().
  flagged_.assign(reads.size(), 0);

  if (inner_injects_) {
    cost = inner_->step(reads, read_values, writes);
    const std::span<const std::uint8_t> inner_flags =
        inner_->flagged_reads();
    for (std::size_t i = 0; i < reads.size() && i < inner_flags.size();
         ++i) {
      flagged_[i] = inner_flags[i];
    }
  } else {
    // Wrapper-level degradation: drop writes whose synthetic module is
    // dead, corrupt the words of surviving stores.
    std::vector<pram::VarWrite> degraded;
    degraded.reserve(writes.size());
    for (const auto& write : writes) {
      if (model_.module_dead(synthetic_module(write.var), step)) {
        ++wrapper_stats_.writes_dropped;
        continue;
      }
      pram::VarWrite w = write;
      if (model_.corrupt_write(w.var.index(), 0, step, step, w.value)) {
        ++wrapper_stats_.corrupt_stores;
      }
      degraded.push_back(w);
    }
    cost = inner_->step(reads, read_values, degraded);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      ++wrapper_stats_.reads_served;
      if (model_.module_dead(synthetic_module(reads[i]), step)) {
        read_values[i] = 0;
        flagged_[i] = 1;
        ++wrapper_stats_.uncorrectable;
        ++wrapper_stats_.erasures_skipped;
        ++wrapper_stats_.units_faulty;
        continue;
      }
      pram::Word stuck = 0;
      if (model_.stuck_at(reads[i].index(), 0, step, stuck)) {
        read_values[i] = stuck;
        ++wrapper_stats_.units_faulty;
      }
    }
  }

  // Oracle pass (reads observe pre-step state, so check before the
  // writes commit to the checker). Flagged reads are excluded from the
  // mismatch count — both injection regimes report exactly which reads
  // were served below threshold, so wrong_reads counts ONLY silent lies.
  {
    obs::ScopedPhase timer(obs_timing(), obs::Phase::kOracle);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (flagged_[i] != 0) {
        (void)checker_.check_read(reads[i], checker_.expected(reads[i]));
        continue;  // counted as checked-consistent: the loss was flagged
      }
      if (!checker_.check_read(reads[i], read_values[i])) {
        ++wrapper_stats_.wrong_reads;
        obs_event(obs::EventKind::kWrongRead, reads[i].index(), 0,
                  read_values[i], checker_.expected(reads[i]));
        obs_count("oracle.wrong_reads");
      }
    }
  }

  for (const auto& write : writes) {
    checker_.record_write(write.var, write.value);
  }
  return cost;
}

pram::MemStepCost FaultableMemory::serve(const pram::AccessPlan& plan,
                                         pram::ServeContext& ctx) {
  if (!inner_injects_) {
    // Wrapper-level injection must observe every access: the default
    // adapter funnels the plan through this wrapper's step() override.
    return pram::MemorySystem::serve(plan, ctx);
  }
  advance_step_clock();
  emit_onsets(steps_served());
  const pram::MemStepCost cost = inner_->serve(plan, ctx);

  // Mirror the context's outage flags (the inner scheme's view) so
  // step()-level callers of flagged_reads() see them here too.
  const std::span<const std::uint8_t> flags = ctx.flags();
  flagged_.assign(plan.reads.size(), 0);
  for (std::size_t i = 0; i < plan.reads.size() && i < flags.size(); ++i) {
    flagged_[i] = flags[i];
  }

  // Oracle pass, identical to step()'s: flagged losses are outages, not
  // lies; everything else must match the trace-consistency expectation.
  const std::span<pram::Word> read_values = ctx.read_values();
  {
    obs::ScopedPhase timer(obs_timing(), obs::Phase::kOracle);
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      if (flagged_[i] != 0) {
        (void)checker_.check_read(plan.reads[i],
                                  checker_.expected(plan.reads[i]));
        continue;
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
  checker_.reset();
  std::uint64_t count = 0;
  if (!get_u64(source, count)) {
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t var = 0;
    pram::Word value = 0;
    if (!get_u64(source, var) || !get_word(source, value) ||
        var >= inner_->size()) {
      return false;
    }
    checker_.record_write(VarId(static_cast<std::uint32_t>(var)), value);
  }
  onset_cursor_ = 0;
  return true;
}

}  // namespace pramsim::faults
