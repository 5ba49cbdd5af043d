#include "majority/majority_memory.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace pramsim::majority {

MajorityMemory::MajorityMemory(std::unique_ptr<AccessEngine> engine)
    : engine_(std::move(engine)),
      store_(engine_->map().num_vars(), engine_->map().redundancy()),
      n_processors_(std::max<std::uint32_t>(engine_->n_processors(), 1)) {
  PRAMSIM_ASSERT(engine_ != nullptr);
  PRAMSIM_ASSERT_MSG(engine_->map().redundancy() % 2 == 1,
                     "majority rule requires odd r = 2c-1");
  // Fingerprint the map's placement of variable 0 as the relocation-probe
  // salt: a pure function of the map (so replays match) that still varies
  // with the map seed (so instances don't all relocate identically).
  for (const auto module : engine_->map().copies(VarId(0))) {
    map_salt_ = map_salt_ * 0x100000001B3ULL + module.index() + 1;
  }
}

void MajorityMemory::copies_into_current(VarId var,
                                         std::span<ModuleId> out) const {
  engine_->map().copies_into(var, out);
  relocations_.apply(var.index(), out);
}

pram::MemStepCost MajorityMemory::serve(const pram::AccessPlan& plan,
                                        pram::ServeContext& ctx) {
  PRAMSIM_ASSERT(plan.reads.size() == ctx.read_values().size());
  const std::uint64_t stamp = advance_step_clock();
  obs_count("majority.steps");
  obs_count("majority.reads", plan.reads.size());
  obs_count("majority.writes", plan.writes.size());
  obs::PhaseSet* timing = obs_timing();

  // The plan's request list is the access union (reads first, then
  // write-only variables); requesters are synthesized round-robin over
  // the engine's processors.
  request_scratch_.clear();
  request_scratch_.reserve(plan.requests.size());
  for (std::uint32_t j = 0; j < plan.requests.size(); ++j) {
    request_scratch_.push_back(
        {plan.requests[j].var, ProcId(j % n_processors_),
         plan.requests[j].op});
  }

  // The engine schedule is a global protocol over every request; it
  // stays on the serving thread under either backend.
  {
    obs::ScopedPhase timer(timing, obs::Phase::kEngineSchedule);
    engine_->run_step_into(request_scratch_, schedule_);
  }

  obs::ScopedPhase value_timer(timing, obs::Phase::kValuePhase);
  // Two-phase for the paged store: rows this step will write are
  // materialized up front on the serving thread, so serve_range only
  // mutates distinct pre-existing rows (the page directory and touched
  // bits stay frozen while ranges run). Under the degraded protocol the
  // schedule's copies become each request's current placement here, with
  // the scrub relocations applied in place, and a write whose every
  // module is dead stores nothing, so its row stays untouched.
  const std::uint32_t r = engine_->map().redundancy();
  if (hooks_ == nullptr) {
    for (const auto& w : plan.writes) {
      store_.ensure_row(w.var);
    }
  } else {
    ctx.enable_flags();
    PRAMSIM_ASSERT(schedule_.copies.size() == plan.requests.size() * r);
    for (std::size_t j = 0; j < plan.requests.size(); ++j) {
      relocations_.apply(plan.requests[j].var.index(),
                         {schedule_.copies.data() + j * r, r});
    }
    for (std::size_t i = 0; i < plan.writes.size(); ++i) {
      const ModuleId* modules =
          schedule_.copies.data() + std::size_t{plan.write_request[i]} * r;
      if (std::any_of(modules, modules + r, [&](ModuleId module) {
            return !hooks_->module_dead(module, stamp);
          })) {
        store_.ensure_row(plan.writes[i].var);
      }
    }
  }

  const std::size_t n_requests = plan.requests.size();
  util::Executor* executor = ctx.executor();
  const std::size_t workers =
      backend_ == pram::ServeBackend::kGroupParallel && executor != nullptr
          ? executor->plan_workers(n_requests)
          : 1;
  chunk_scratch_.assign(workers, {});
  auto body = [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    serve_range(plan, ctx, lo, hi, chunk_scratch_[chunk]);
  };
  if (workers > 1) {
    executor->run_with(n_requests, workers, body);
  } else {
    body(0, 0, n_requests);
  }

  // Deterministic post-merge: chunk tallies fold in chunk order (every
  // field is a commutative sum, so any worker count folds identically;
  // journal events re-sort canonically at step commit).
  std::uint64_t fault_work = 0;
  pram::ReliabilityStats step_stats;
  for (const auto& tally : chunk_scratch_) {
    step_stats.merge(tally.stats);
    fault_work += tally.fault_work;
    for (const auto& event : tally.events) {
      obs_event(event.kind, event.entity, event.unit, event.a, event.b);
    }
  }
  reliability_.merge(step_stats);
  if (step_stats.faults_masked != 0) {
    obs_count("majority.votes.masked", step_stats.faults_masked);
  }
  if (step_stats.uncorrectable != 0) {
    obs_count("majority.votes.uncorrectable", step_stats.uncorrectable);
  }
  if (step_stats.erasures_skipped != 0) {
    obs_count("majority.erasures", step_stats.erasures_skipped);
  }
  if (step_stats.writes_dropped != 0) {
    obs_count("majority.stores.dropped", step_stats.writes_dropped);
  }

  return pram::MemStepCost{.time = schedule_.time,
                           .work = schedule_.work + fault_work,
                           .live_after_stage1 = schedule_.live_after_stage1,
                           .max_queue = schedule_.max_queue};
}

void MajorityMemory::serve_range(const pram::AccessPlan& plan,
                                 pram::ServeContext& ctx, std::size_t lo,
                                 std::size_t hi, ChunkTally& tally) {
  const std::span<pram::Word> read_values = ctx.read_values();
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t stamp = steps_served();
  // Requests lead with the reads in plan order, so a request index below
  // n_reads IS its read index.
  const std::size_t n_reads = plan.reads.size();
  if (hooks_ == nullptr) {
    for (std::size_t j = lo; j < hi; ++j) {
      const std::uint64_t mask = schedule_.accessed_mask[j];
      if (j < n_reads) {
        read_values[j] = store_.freshest(plan.reads[j], mask).value;
      }
      const std::uint32_t w = plan.request_write[j];
      if (w == pram::AccessPlan::kNone) {
        continue;
      }
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if ((mask >> copy) & 1ULL) {
          store_.write_prepared(plan.writes[w].var, copy,
                                plan.writes[w].value, stamp);
        }
      }
    }
    return;
  }

  // Degraded protocol: each request's read votes over the pre-step
  // state, then its write stores through, both over the placement
  // serve()'s pre-pass made current in the schedule's copies.
  const bool journal_events = obs::kEnabled && observer() != nullptr;
  for (std::size_t j = lo; j < hi; ++j) {
    const std::uint32_t w = plan.request_write[j];
    const std::span<const ModuleId> modules(schedule_.copies.data() + j * r,
                                            r);
    if (j < n_reads) {
      const auto outcome = store_.vote(plan.reads[j], modules, stamp, *hooks_);
      read_values[j] = outcome.winner.value;
      ++tally.stats.reads_served;
      tally.stats.erasures_skipped += outcome.erased;
      tally.stats.units_faulty += outcome.erased + outcome.dissenting;
      tally.fault_work += outcome.survivors;
      if (outcome.survivors == 0) {
        ++tally.stats.uncorrectable;
        ctx.flag_read(j);
        if (journal_events) {
          tally.events.push_back({stamp, obs::EventKind::kUncorrectable,
                                  outcome.erased, plan.reads[j].index(),
                                  outcome.dissenting, 0});
        }
      } else if (outcome.erased + outcome.dissenting > 0) {
        ++tally.stats.faults_masked;
        if (journal_events) {
          tally.events.push_back({stamp, obs::EventKind::kDegradedVote,
                                  outcome.erased, plan.reads[j].index(),
                                  outcome.dissenting, outcome.survivors});
        }
      }
    }
    if (w != pram::AccessPlan::kNone) {
      tally.stats.writes_dropped += store_.store_all_prepared(
          plan.writes[w].var, modules, plan.writes[w].value, stamp, stamp,
          stamp, *hooks_, tally.stats.corrupt_stores);
      tally.fault_work += r;
    }
  }
}

pram::Word MajorityMemory::peek(VarId var) const {
  if (hooks_ != nullptr) {
    // A fault-aware verifier reads the way the degraded protocol does,
    // at the current step of the fault clock.
    std::vector<ModuleId> modules(engine_->map().redundancy());
    copies_into_current(var, modules);
    return store_.vote(var, modules, steps_served(), *hooks_).winner.value;
  }
  return store_.ground_truth(var).value;
}

void MajorityMemory::poke(VarId var, pram::Word value) {
  // Out-of-band initialization: set every copy so the poke is the ground
  // truth regardless of which copies later reads access. Under fault
  // injection, initialization is subject to the same faults as any other
  // store (modules dead at the current step never learn the value).
  if (hooks_ != nullptr) {
    const std::uint64_t stamp = steps_served();
    std::vector<ModuleId> modules(engine_->map().redundancy());
    copies_into_current(var, modules);
    reliability_.writes_dropped +=
        store_.store_all(var, modules, value, stamp, stamp, stamp,
                         *hooks_, reliability_.corrupt_stores);
    return;
  }
  for (std::uint32_t copy = 0; copy < engine_->map().redundancy(); ++copy) {
    store_.write(var, copy, value, steps_served());
  }
}

pram::ScrubResult MajorityMemory::scrub(std::uint64_t budget) {
  pram::ScrubResult result;
  if (hooks_ == nullptr || budget == 0) {
    return result;
  }
  const std::uint64_t stamp = steps_served();
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t m = engine_->map().num_vars();
  std::vector<ModuleId> modules(r);
  for (std::uint64_t n = 0; n < budget && n < m; ++n) {
    const VarId var(static_cast<std::uint32_t>(scrub_cursor_));
    scrub_cursor_ = (scrub_cursor_ + 1) % m;
    ++result.scanned;
    copies_into_current(var, modules);
    const auto outcome = store_.vote(var, modules, stamp, *hooks_);
    result.work += outcome.survivors;
    if (outcome.survivors == 0 ||
        (outcome.erased == 0 && outcome.dissenting == 0)) {
      // Fully healthy (nothing to do) or fully lost (nothing to rebuild
      // from — the data is gone until the next write recreates it).
      continue;
    }
    // A re-store only helps when some live, NON-stuck copy disagrees
    // with the winner (stale or corrupted storage): stuck copies read
    // their stuck value no matter what is written, so a pass whose only
    // dissent is stuck-at must not rewrite the variable forever.
    bool store_helps = false;
    if (!store_.touched(var)) {
      // Untouched row: every real copy is the initial {0, 0} == the
      // winner, so relocation alone restores full redundancy and the
      // row stays untouched.
    } else if (outcome.erased > 0) {
      // Copies on dead modules missed write-through while dead: after
      // relocation their stored words are stale and must be re-stamped.
      store_helps = true;
    } else {
      for (std::uint32_t copy = 0; copy < r && !store_helps; ++copy) {
        if (hooks_->module_dead(modules[copy], stamp)) {
          continue;
        }
        pram::Word stuck = 0;
        if (hooks_->stuck_at(var.index(), copy, stamp, stuck)) {
          continue;
        }
        const Copy& held = store_.at(var, copy);
        store_helps = held.value != outcome.winner.value ||
                      held.stamp != outcome.winner.stamp;
      }
    }
    if (outcome.erased == 0 && !store_helps) {
      continue;  // steady state: only unfixable (stuck) dissent remains
    }
    // Re-home the copies sitting on dead modules; copies whose relocated
    // module later died are re-homed again.
    const std::uint32_t relocated = relocations_.relocate_dead(
        *hooks_, stamp, engine_->map().num_modules(), map_salt_, var.index(),
        modules, observer(), result, reliability_);
    if (!store_.touched(var)) {
      // Relocation-only repair: the initial copies already agree with
      // the winner, so writing them would only materialize the row.
      if (relocated > 0) {
        ++result.repaired;
        ++reliability_.units_repaired;
        obs_event(obs::EventKind::kScrubRepair, var.index(), relocated);
      }
      continue;
    }
    // Re-stamp the vote winner onto every live copy at the current step
    // (strictly fresher than any committed write, so the repair wins
    // future freshness ties). The corruption re-roll uses a dedicated
    // counter: a store that corrupted at its protocol stamp rolls fresh
    // here instead of deterministically re-corrupting.
    const std::uint64_t reroll = (1ULL << 63) | scrub_stores_++;
    const std::uint32_t dropped =
        store_.store_all(var, modules, outcome.winner.value, stamp, reroll,
                         stamp, *hooks_, reliability_.corrupt_stores);
    result.work += r - dropped;
    ++result.repaired;
    ++reliability_.units_repaired;
    obs_event(obs::EventKind::kScrubRepair, var.index(), relocated);
  }
  return result;
}

/// The body's width field, always 1 (one variable per row): the field
/// stays so every majority checkpoint keeps its bytes, and restore
/// rejects any other value.
constexpr std::uint32_t kBodyWidth = 1;

void MajorityMemory::snapshot_body(pram::SnapshotSink& sink) {
  put_u32(sink, store_.redundancy());
  put_u32(sink, kBodyWidth);

  // Copy is padding-free (static_assert in copy_store.hpp), so each row
  // serializes as one raw span of (value, stamp) pairs.
  put_rows(sink, store_.rows());
  relocations_.snapshot(sink);
  put_u64(sink, scrub_cursor_);
  put_u64(sink, scrub_stores_);
}

bool MajorityMemory::restore_body(pram::SnapshotSource& source) {
  std::uint32_t r = 0;
  std::uint32_t width = 0;
  if (!get_u32(source, r) || r != store_.redundancy() ||
      !get_u32(source, width) || width != kBodyWidth) {
    return false;
  }

  return get_rows(source, store_.rows(), store_.num_vars()) &&
         relocations_.restore(source, store_.num_vars() * r,
                              num_modules()) &&
         get_u64(source, scrub_cursor_) && get_u64(source, scrub_stores_);
}

}  // namespace pramsim::majority
