#include "majority/majority_memory.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sorted_entries.hpp"

namespace pramsim::majority {

MajorityMemory::MajorityMemory(std::unique_ptr<AccessEngine> engine,
                               std::uint32_t region_words)
    : engine_(std::move(engine)),
      store_(engine_->map().num_vars(), engine_->map().redundancy(),
             std::max<std::uint32_t>(region_words, 1)),
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

MajorityMemory::MajorityMemory(std::shared_ptr<const memmap::MemoryMap> map,
                               SchedulerConfig scheduler,
                               std::uint32_t region_words)
    : MajorityMemory(std::make_unique<DmmpcEngine>(std::move(map), scheduler),
                     region_words) {}

std::uint64_t MajorityMemory::plan_group_of(VarId var) const {
  // The base map's first copy module (r <= 64 by CopyStore contract, so
  // a stack buffer suffices and the call is allocation-free and
  // thread-safe for the plan generator).
  ModuleId modules[64];
  const std::uint32_t r = engine_->map().redundancy();
  engine_->map().copies_into(var, std::span<ModuleId>(modules, r));
  return modules[0].index();
}

void MajorityMemory::copies_into_current(VarId var,
                                         std::span<ModuleId> out) const {
  engine_->map().copies_into(var, out);
  if (relocated_.empty()) {
    return;
  }
  const std::uint32_t r = engine_->map().redundancy();
  for (std::uint32_t copy = 0; copy < r; ++copy) {
    const auto it = relocated_.find(var.index() * r + copy);
    if (it != relocated_.end()) {
      out[copy] = it->second;
    }
  }
}

std::uint64_t MajorityMemory::degraded_serve(const pram::AccessPlan& plan,
                                             pram::ServeContext& ctx) {
  // Degraded-mode protocol: majority-vote reads over every surviving
  // copy, write-through to every surviving copy. The engine's schedule
  // still prices the step; the widened copy traffic is extra work.
  const std::span<const VarId> reads = plan.reads;
  const std::span<const pram::VarWrite> writes = plan.writes;
  const std::span<pram::Word> read_values = ctx.read_values();
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t stamp = steps_served();
  std::uint64_t fault_work = 0;
  std::uint64_t masked = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t erased_total = 0;
  std::uint64_t dropped = 0;
  std::vector<ModuleId> modules(r);
  ctx.enable_flags();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    copies_into_current(reads[i], modules);
    const auto outcome = store_.vote(reads[i], modules, stamp, *hooks_);
    read_values[i] = outcome.winner.value;
    ++reliability_.reads_served;
    reliability_.erasures_skipped += outcome.erased;
    reliability_.units_faulty += outcome.erased + outcome.dissenting;
    fault_work += outcome.survivors;
    erased_total += outcome.erased;
    if (outcome.survivors == 0) {
      ++reliability_.uncorrectable;
      ctx.flag_read(i);
      ++uncorrectable;
      obs_event(obs::EventKind::kUncorrectable, reads[i].index(),
                outcome.erased, outcome.dissenting);
    } else if (outcome.erased + outcome.dissenting > 0) {
      ++reliability_.faults_masked;
      ++masked;
      obs_event(obs::EventKind::kDegradedVote, reads[i].index(),
                outcome.erased, outcome.dissenting, outcome.survivors);
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    copies_into_current(writes[i].var, modules);
    const std::uint32_t d =
        store_.store_all(writes[i].var, modules, writes[i].value, stamp,
                         stamp, stamp, *hooks_,
                         reliability_.corrupt_stores);
    reliability_.writes_dropped += d;
    dropped += d;
    fault_work += r;
  }
  obs_degraded_counts(masked, uncorrectable, erased_total, dropped);
  return fault_work;
}

void MajorityMemory::obs_degraded_counts(std::uint64_t masked,
                                         std::uint64_t uncorrectable,
                                         std::uint64_t erased,
                                         std::uint64_t dropped) const {
  if (masked != 0) {
    obs_count("majority.votes.masked", masked);
  }
  if (uncorrectable != 0) {
    obs_count("majority.votes.uncorrectable", uncorrectable);
  }
  if (erased != 0) {
    obs_count("majority.erasures", erased);
  }
  if (dropped != 0) {
    obs_count("majority.stores.dropped", dropped);
  }
}

pram::MemStepCost MajorityMemory::serve(const pram::AccessPlan& plan,
                                        pram::ServeContext& ctx) {
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  const std::uint64_t stamp = advance_step_clock();
  ctx.stamp_step(stamp);
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
    engine_->run_step_into(request_scratch_, engine_scratch_);
  }
  const EngineResult& result = engine_scratch_;
  time_stats_.add(static_cast<double>(result.time));
  last_stats_ = result.stats;

  const std::uint32_t r = engine_->map().redundancy();
  std::uint64_t fault_work = 0;
  obs::ScopedPhase value_timer(timing, obs::Phase::kValuePhase);
  // Fan the value phase only when the executor would actually hand out
  // more than one chunk: at one worker the plain read/write loops below
  // do the same work without the group indirection (identical values and
  // telemetry either way — the backends are bit-equivalent by contract).
  const bool fan =
      backend_ == pram::ServeBackend::kGroupParallel && plan.grouped() &&
      ctx.executor() != nullptr &&
      ctx.executor()->plan_workers(plan.num_groups(),
                                   plan.requests.size()) > 1;
  if (fan) {
    fault_work = serve_groups_parallel(plan, ctx, result);
  } else if (hooks_ == nullptr) {
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      read_values[i] =
          store_
              .freshest(plan.reads[i],
                        result.accessed_mask[plan.read_request[i]])
              .value;
    }
    for (std::size_t i = 0; i < plan.writes.size(); ++i) {
      const std::uint64_t mask =
          result.accessed_mask[plan.write_request[i]];
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if ((mask >> copy) & 1ULL) {
          store_.write(plan.writes[i].var, copy, plan.writes[i].value,
                       stamp);
        }
      }
    }
  } else {
    fault_work = degraded_serve(plan, ctx);
  }

  return pram::MemStepCost{.time = result.time,
                           .work = result.work + fault_work,
                           .live_after_stage1 = result.stats.live_after_stage1,
                           .max_queue = result.stats.max_queue};
}

std::uint64_t MajorityMemory::serve_groups_parallel(
    const pram::AccessPlan& plan, pram::ServeContext& ctx,
    const EngineResult& result) {
  const std::span<pram::Word> read_values = ctx.read_values();
  const std::uint32_t r = engine_->map().redundancy();
  const std::uint64_t stamp = steps_served();
  const std::size_t n_reads = plan.reads.size();

  // Two-phase for the paged store: rows this step will write are
  // materialized up front on the serving thread, so group workers only
  // mutate distinct pre-existing rows (the page directory and touched
  // bits are frozen during the fan-out). Under the degraded protocol a
  // write whose every module is dead stores nothing — leave its row
  // untouched so the store's state matches the serial path exactly
  // (scrub treats untouched rows specially).
  if (hooks_ == nullptr) {
    for (const auto& w : plan.writes) {
      store_.ensure_row(w.var);
    }
  } else {
    ctx.enable_flags();
    std::vector<ModuleId> modules(r);
    for (const auto& w : plan.writes) {
      copies_into_current(w.var, modules);
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if (!hooks_->module_dead(modules[copy], stamp)) {
          store_.ensure_row(w.var);
          break;
        }
      }
    }
  }

  const pram::GroupRange groups(plan);
  util::Executor* executor = ctx.executor();
  const std::size_t workers =
      executor != nullptr
          ? executor->plan_workers(groups.size(), plan.requests.size())
          : 1;
  const std::size_t chunk = (groups.size() + workers - 1) / workers;
  chunk_scratch_.assign(workers, {});
  // Workers buffer journal events per chunk; the fold below appends them
  // in chunk order so the journal matches the serial path (the per-step
  // canonical sort makes intra-step order irrelevant).
  const bool journal_events = obs::kEnabled && observer() != nullptr;

  auto body = [&](std::size_t g_lo, std::size_t g_hi) {
    ChunkTally& tally = chunk_scratch_[g_lo / chunk];
    ModuleId modules[64];
    const std::span<ModuleId> module_span(modules, r);
    for (std::size_t g = g_lo; g < g_hi; ++g) {
      const auto unit = groups[g];
      if (hooks_ == nullptr) {
        for (const std::uint32_t j : unit.requests) {
          // Requests lead with the reads in plan order, so a request
          // index below n_reads IS its read index.
          if (j < n_reads) {
            read_values[j] =
                store_.freshest(plan.reads[j], result.accessed_mask[j])
                    .value;
          }
          const std::uint32_t w = plan.request_write[j];
          if (w != pram::AccessPlan::kNone) {
            const std::uint64_t mask = result.accessed_mask[j];
            for (std::uint32_t copy = 0; copy < r; ++copy) {
              if ((mask >> copy) & 1ULL) {
                store_.write_prepared(plan.writes[w].var, copy,
                                      plan.writes[w].value, stamp);
              }
            }
          }
        }
        continue;
      }
      // Degraded protocol, group-local: the group's reads vote first
      // (pre-step state), then its writes store through. Groups touch
      // disjoint variables, so cross-group interleaving cannot change
      // any value; telemetry lands in this chunk's tally.
      for (const std::uint32_t j : unit.requests) {
        if (j >= n_reads) {
          continue;
        }
        copies_into_current(plan.reads[j], module_span);
        const auto outcome =
            store_.vote(plan.reads[j], module_span, stamp, *hooks_);
        read_values[j] = outcome.winner.value;
        ++tally.stats.reads_served;
        tally.stats.erasures_skipped += outcome.erased;
        tally.stats.units_faulty += outcome.erased + outcome.dissenting;
        tally.fault_work += outcome.survivors;
        if (outcome.survivors == 0) {
          ++tally.stats.uncorrectable;
          ctx.flag_read(j);
          if (journal_events) {
            tally.events.push_back(
                {stamp, obs::EventKind::kUncorrectable, outcome.erased,
                 plan.reads[j].index(), outcome.dissenting, 0});
          }
        } else if (outcome.erased + outcome.dissenting > 0) {
          ++tally.stats.faults_masked;
          if (journal_events) {
            tally.events.push_back(
                {stamp, obs::EventKind::kDegradedVote, outcome.erased,
                 plan.reads[j].index(), outcome.dissenting,
                 outcome.survivors});
          }
        }
      }
      for (const std::uint32_t j : unit.requests) {
        const std::uint32_t w = plan.request_write[j];
        if (w == pram::AccessPlan::kNone) {
          continue;
        }
        copies_into_current(plan.writes[w].var, module_span);
        tally.stats.writes_dropped += store_.store_all_prepared(
            plan.writes[w].var, module_span, plan.writes[w].value, stamp,
            stamp, stamp, *hooks_, tally.stats.corrupt_stores);
        tally.fault_work += r;
      }
    }
  };
  if (executor != nullptr && workers > 1) {
    executor->run_with(groups.size(), workers, body);
  } else {
    body(0, groups.size());
  }

  // Deterministic post-merge: chunk tallies fold in chunk order (every
  // field is a commutative sum, so any worker count folds identically;
  // journal events re-sort canonically at step commit).
  std::uint64_t fault_work = 0;
  std::uint64_t masked = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t erased_total = 0;
  std::uint64_t dropped = 0;
  for (const auto& tally : chunk_scratch_) {
    reliability_.merge(tally.stats);
    fault_work += tally.fault_work;
    masked += tally.stats.faults_masked;
    uncorrectable += tally.stats.uncorrectable;
    erased_total += tally.stats.erasures_skipped;
    dropped += tally.stats.writes_dropped;
    for (const auto& event : tally.events) {
      obs_event(event.kind, event.entity, event.unit, event.a, event.b);
    }
  }
  obs_degraded_counts(masked, uncorrectable, erased_total, dropped);
  return fault_work;
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
  // Region fast path state (widths > 1): one memcmp-majority pass per
  // region certifies bytewise unanimity across all r copies; every
  // variable of a unanimous region with no fault hook firing is then
  // skipped without gathering or counting ballots — the word-granular
  // vote below is the fallback for dissenting regions. Valid within one
  // scrub call: repairs only rewrite columns the fallback path visited,
  // never the columns the fast path certified.
  const std::uint64_t all_mask = r >= 64 ? ~0ULL : ((1ULL << r) - 1);
  std::uint64_t cached_region = ~0ULL;
  bool cached_unanimous = false;
  for (std::uint64_t n = 0; n < budget && n < m; ++n) {
    const VarId var(static_cast<std::uint32_t>(scrub_cursor_));
    scrub_cursor_ = (scrub_cursor_ + 1) % m;
    ++result.scanned;
    copies_into_current(var, modules);
    if (store_.region_words() > 1) {
      const std::uint64_t region = store_.region_of(var);
      if (region != cached_region) {
        cached_region = region;
        std::uint32_t dissent = 1;
        cached_unanimous = store_.vote_region(region, all_mask, &dissent) !=
                               CopyStore::kNoRegionMajority &&
                           dissent == 0;
      }
      if (cached_unanimous) {
        bool clean = true;
        for (std::uint32_t copy = 0; copy < r && clean; ++copy) {
          pram::Word stuck = 0;
          clean = !hooks_->module_dead(modules[copy], stamp) &&
                  !hooks_->stuck_at(var.index(), copy, stamp, stuck);
        }
        if (clean) {
          // Same outcome (and work accounting) the word vote would
          // produce for a full-survivor, zero-dissent variable.
          result.work += r;
          continue;
        }
      }
    }
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
    std::uint32_t relocated = 0;
    for (std::uint32_t copy = 0; copy < r; ++copy) {
      if (!hooks_->module_dead(modules[copy], stamp)) {
        continue;
      }
      ModuleId replacement;
      if (pram::pick_healthy_module(*hooks_, stamp,
                                    engine_->map().num_modules(), map_salt_,
                                    var.index(), copy, modules,
                                    replacement)) {
        obs_event(obs::EventKind::kRelocation, var.index(), copy,
                  modules[copy].index(), replacement.index());
        relocated_[var.index() * r + copy] = replacement;
        modules[copy] = replacement;
        ++relocated;
      }
    }
    result.relocated += relocated;
    reliability_.units_relocated += relocated;
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

void MajorityMemory::snapshot_body(pram::SnapshotSink& sink) {
  const std::uint32_t r = store_.redundancy();
  const std::uint32_t w = store_.region_words();
  put_u32(sink, r);
  put_u32(sink, w);

  put_u64(sink, store_.touched_vars());
  store_.for_each_row([&](std::uint64_t region, std::span<const Copy> row) {
    put_u64(sink, region);
    // Copy is padding-free (static_assert in copy_store.hpp), so the row
    // serializes as one raw span of (value, stamp) pairs.
    sink.write(row.data(), row.size_bytes());
  });

  const auto relocated = util::sorted_entries(relocated_);
  put_u64(sink, relocated.size());
  for (const auto& [key, module] : relocated) {
    put_u64(sink, key);
    put_u32(sink, module->value());
  }

  put_u64(sink, scrub_cursor_);
  put_u64(sink, scrub_stores_);
}

bool MajorityMemory::restore_body(pram::SnapshotSource& source) {
  std::uint32_t r = 0;
  std::uint32_t w = 0;
  if (!get_u32(source, r) || r != store_.redundancy() ||
      !get_u32(source, w) || w != store_.region_words()) {
    return false;
  }

  // Rows and overlay keys arrive strictly ascending and in range, as
  // snapshot_body writes them; anything else is a forged frame.
  store_.clear_rows();
  std::uint64_t n_rows = 0;
  if (!get_u64(source, n_rows) || n_rows > store_.num_regions()) {
    return false;
  }
  const std::size_t row_len = static_cast<std::size_t>(r) * w;
  std::vector<Copy> row(row_len);
  std::uint64_t next_region = 0;
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    std::uint64_t region = 0;
    if (!get_ascending_key(source, next_region, store_.num_regions(),
                           region) ||
        !source.read(row.data(), row_len * sizeof(Copy))) {
      return false;
    }
    store_.restore_row(region, row);
  }

  relocated_.clear();
  const std::uint64_t n_keys = store_.num_vars() * r;
  std::uint64_t n_relocated = 0;
  if (!get_u64(source, n_relocated) || n_relocated > n_keys) {
    return false;
  }
  std::uint64_t next_key = 0;
  for (std::uint64_t i = 0; i < n_relocated; ++i) {
    std::uint64_t key = 0;
    std::uint32_t module = 0;
    if (!get_ascending_key(source, next_key, n_keys, key) ||
        !get_u32(source, module) || module >= num_modules()) {
      return false;
    }
    relocated_.emplace(key, ModuleId(module));
  }

  return get_u64(source, scrub_cursor_) && get_u64(source, scrub_stores_);
}

}  // namespace pramsim::majority
