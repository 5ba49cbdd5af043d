#include "faults/faultable_memory.hpp"

#include <utility>

#include "util/assert.hpp"

namespace pramsim::faults {

FaultableMemory::FaultableMemory(std::unique_ptr<pram::MemorySystem> inner,
                                 FaultSpec spec)
    : inner_(std::move(inner)),
      model_(spec, inner_ == nullptr ? 1 : inner_->num_modules()) {
  PRAMSIM_ASSERT(inner_ != nullptr);
  const bool accepted = inner_->set_fault_hooks(&model_);
  PRAMSIM_ASSERT_MSG(accepted,
                     "FaultableMemory: the inner memory rejected the fault "
                     "hooks; faults apply only at copy/share granularity");
}

void FaultableMemory::emit_onsets(std::uint64_t step) {
  if constexpr (obs::kEnabled) {
    if (observer() == nullptr) {
      return;
    }
    const auto onsets = model_.onsets();
    while (onset_cursor_ < onsets.size() &&
           onsets[onset_cursor_].step <= step) {
      obs_event(obs::EventKind::kFaultOnset,
                onsets[onset_cursor_].module.index(), 0,
                onsets[onset_cursor_].step);
      obs_count("fault.onsets");
      ++onset_cursor_;
    }
  } else {
    (void)step;
  }
}

pram::MemStepCost FaultableMemory::serve(const pram::AccessPlan& plan,
                                         pram::ServeContext& ctx) {
  emit_onsets(advance_step_clock());
  const pram::MemStepCost cost = inner_->serve(plan, ctx);

  // Oracle pass (reads observe pre-step state, so check before the
  // writes commit to the checker). Flagged reads are excluded from the
  // mismatch count — the inner scheme reports exactly which reads were
  // served below threshold, so wrong_reads counts ONLY silent lies.
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

void FaultableMemory::snapshot_body(pram::SnapshotSink& sink) {
  inner_->snapshot(sink);
  checker_.snapshot(sink);
}

bool FaultableMemory::restore_body(pram::SnapshotSource& source) {
  if (!inner_->restore(source) ||
      !checker_.restore(source, inner_->size())) {
    return false;
  }
  onset_cursor_ = 0;
  return true;
}

}  // namespace pramsim::faults
