#include "cache/cached_memory.hpp"

#include <algorithm>
#include <utility>

#include "memmap/memory_map.hpp"
#include "util/assert.hpp"

namespace pramsim::cache {

namespace {

/// Largest per-variable redundancy the precise died-since-fill check
/// handles on the stack; wider maps fall back to the coarse epoch test
/// (any death since fill invalidates).
constexpr std::uint32_t kMaxMapRedundancy = 16;

}  // namespace

CachedMemory::CachedMemory(std::unique_ptr<pram::MemorySystem> inner,
                           CacheConfig config)
    : inner_(std::move(inner)), config_(config) {
  PRAMSIM_ASSERT_MSG(config_.capacity >= 1,
                     "cache capacity must be >= 1 line");
  // Lines and the index grow on demand (a capacity of millions of lines
  // should not allocate until the working set actually reaches it).
  lines_.reserve(std::min<std::uint64_t>(config_.capacity, 1024));
  index_.reserve(std::min<std::uint64_t>(config_.capacity, 1u << 16));
}

void CachedMemory::begin_step() {
  residual_reads_.clear();
  residual_to_outer_.clear();
  fill_slot_.clear();
  residual_writes_.clear();
  residual_write_index_.clear();
  step_stats_ = {};
}

void CachedMemory::refresh_fault_epoch(std::uint64_t now) {
  if (hooks_ == nullptr) {
    return;
  }
  const std::uint32_t n_modules = inner_->num_modules();
  std::uint64_t dead = 0;
  for (std::uint32_t m = 0; m < n_modules; ++m) {
    if (hooks_->module_dead(ModuleId(m), now)) {
      ++dead;
    }
  }
  // Hooks are monotone in the step, so a grown dead count pins the most
  // recent onset to this step (the first step that could observe it).
  if (dead > dead_modules_seen_) {
    dead_modules_seen_ = dead;
    last_death_step_ = now;
  }
}

CachedMemory::Staleness CachedMemory::classify_line(Line& line,
                                                    std::uint64_t now) {
  if (line.dirty != 0) {
    // The cache holds the only up-to-date copy of a dirty value (the
    // inner scheme never saw the store); re-serving it from degraded
    // storage would manufacture exactly the silent wrong read the
    // oracle exists to catch. Dirty lines are therefore never stale.
    return Staleness::kFresh;
  }
  if (line.fill_step < reloc_stamp_) {
    return Staleness::kRelocated;
  }
  if (hooks_ == nullptr || line.fill_step >= last_death_step_) {
    return Staleness::kFresh;
  }
  // A module died after this line was filled. When the inner scheme
  // exposes its variable->modules map, check whether any module actually
  // backing THIS variable died in (fill, now]; exonerated lines are
  // re-stamped so the scan is not repeated every step.
  const memmap::MemoryMap* map = inner_->memory_map();
  if (map != nullptr && map->num_vars() == inner_->size() &&
      map->redundancy() >= 1 && map->redundancy() <= kMaxMapRedundancy) {
    ModuleId modules[kMaxMapRedundancy];
    const std::span<ModuleId> backing(modules, map->redundancy());
    map->copies_into(line.var, backing);
    bool died_since_fill = false;
    for (const auto module : backing) {
      if (hooks_->module_dead(module, now) &&
          !hooks_->module_dead(module, line.fill_step)) {
        died_since_fill = true;
        break;
      }
    }
    if (!died_since_fill) {
      line.fill_step = now;
      return Staleness::kFresh;
    }
  }
  return Staleness::kDeadBacking;
}

void CachedMemory::classify_reads(std::span<const VarId> reads,
                                  std::span<pram::Word> out,
                                  std::uint64_t now) {
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const VarId var = reads[i];
    const auto it = index_.find(var.index());
    if (it != index_.end()) {
      Line& line = lines_[it->second];
      const Staleness state = classify_line(line, now);
      if (state == Staleness::kFresh) {
        out[i] = line.value;
        line.ref = 1;
        line.touch_step = now;
        ++step_stats_.hits;
        continue;
      }
      // Stale clean line: invalidate, then re-serve the read as a miss.
      ++step_stats_.invalidations;
      if (state == Staleness::kDeadBacking) {
        obs_event(obs::EventKind::kCacheInvalidateDead, var.index(), 0,
                  line.fill_step, now);
      } else {
        obs_event(obs::EventKind::kCacheInvalidateScrub, var.index(), 0,
                  line.fill_step, reloc_stamp_);
      }
      drop_line(it->second);
    }
    ++step_stats_.misses;
    residual_to_outer_.push_back(static_cast<std::uint32_t>(i));
    residual_reads_.push_back(var);
  }
}

void CachedMemory::apply_writes(std::span<const pram::VarWrite> writes,
                                std::uint64_t now) {
  for (const auto& write : writes) {
    const auto it = index_.find(write.var.index());
    if (it != index_.end()) {
      Line& line = lines_[it->second];
      line.value = write.value;
      line.dirty = 1;
      line.ref = 1;
      line.fill_step = now;
      line.touch_step = now;
      continue;
    }
    const std::uint32_t slot = acquire_slot(now);
    if (slot == kNoSlot) {
      // Every line is pinned by this step: write through.
      ++step_stats_.bypasses;
      queue_residual_write(write.var, write.value);
      continue;
    }
    install_line(slot, write.var, write.value, /*dirty=*/1, now);
  }
}

void CachedMemory::reserve_fills(std::uint64_t now) {
  // Fill targets are reserved BEFORE the inner step so that any eviction
  // a fill provokes contributes its write-back to the SAME residual plan
  // (a post-serve eviction would have to defer its write-back a step).
  fill_slot_.assign(residual_reads_.size(), kNoSlot);
  for (std::size_t j = 0; j < residual_reads_.size(); ++j) {
    const VarId var = residual_reads_[j];
    if (index_.find(var.index()) != index_.end()) {
      // The variable gained a line after classification (this step also
      // writes it): the read stays output-only — the line already holds
      // the post-step value, which the pre-step read must not clobber.
      continue;
    }
    const std::uint32_t slot = acquire_slot(now);
    if (slot == kNoSlot) {
      ++step_stats_.bypasses;
      continue;
    }
    install_line(slot, var, 0, /*dirty=*/0, now);
    fill_slot_[j] = slot;
  }
}

void CachedMemory::commit_results(
    pram::ServeContext& ctx, std::span<const std::uint8_t> residual_flags) {
  const std::span<pram::Word> out = ctx.read_values();
  bool any_flag = false;
  for (std::size_t j = 0; j < residual_reads_.size(); ++j) {
    const std::uint32_t outer = residual_to_outer_[j];
    out[outer] = residual_values_[j];
    if (j >= residual_flags.size() || residual_flags[j] == 0) {
      if (fill_slot_[j] != kNoSlot) {
        lines_[fill_slot_[j]].value = residual_values_[j];
      }
      continue;
    }
    if (!any_flag) {
      any_flag = true;
      ctx.enable_flags();
    }
    ctx.flag_read(outer);
    // Never cache a flagged loss: release the reserved line so the next
    // access retries the inner scheme (which may have scrubbed).
    if (fill_slot_[j] != kNoSlot) {
      drop_line(fill_slot_[j]);
    }
  }
}

void CachedMemory::publish_step_stats() {
  stats_.hits += step_stats_.hits;
  stats_.misses += step_stats_.misses;
  stats_.evictions += step_stats_.evictions;
  stats_.writebacks += step_stats_.writebacks;
  stats_.invalidations += step_stats_.invalidations;
  stats_.bypasses += step_stats_.bypasses;
  if (step_stats_.hits != 0) {
    obs_count("cache.hits", step_stats_.hits);
  }
  if (step_stats_.misses != 0) {
    obs_count("cache.misses", step_stats_.misses);
  }
  if (step_stats_.evictions != 0) {
    obs_count("cache.evictions", step_stats_.evictions);
  }
  if (step_stats_.writebacks != 0) {
    obs_count("cache.writebacks", step_stats_.writebacks);
  }
  if (step_stats_.invalidations != 0) {
    obs_count("cache.invalidations", step_stats_.invalidations);
  }
  if (step_stats_.bypasses != 0) {
    obs_count("cache.bypasses", step_stats_.bypasses);
  }
}

std::uint32_t CachedMemory::acquire_slot(std::uint64_t now) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (lines_.size() < config_.capacity) {
    lines_.emplace_back();
    return static_cast<std::uint32_t>(lines_.size() - 1);
  }
  // Clock sweep (second chance): the first revolution clears reference
  // bits, so a victim is found within two revolutions unless every line
  // is pinned by the current step.
  const std::size_t limit = 2 * lines_.size();
  for (std::size_t scanned = 0; scanned < limit; ++scanned) {
    if (hand_ >= lines_.size()) {
      hand_ = 0;
    }
    const auto slot = static_cast<std::uint32_t>(hand_);
    Line& candidate = lines_[hand_];
    ++hand_;
    if (candidate.touch_step == now) {
      continue;  // hit, written, or reserved this step: pinned
    }
    if (candidate.ref != 0) {
      candidate.ref = 0;
      continue;
    }
    if (candidate.dirty != 0) {
      queue_residual_write(candidate.var, candidate.value);
      ++step_stats_.writebacks;
    }
    index_.erase(candidate.var.index());
    ++step_stats_.evictions;
    return slot;
  }
  return kNoSlot;
}

void CachedMemory::install_line(std::uint32_t slot, VarId var,
                                pram::Word value, std::uint8_t dirty,
                                std::uint64_t now) {
  Line& line = lines_[slot];
  line.var = var;
  line.value = value;
  line.dirty = dirty;
  line.ref = 1;
  line.fill_step = now;
  line.touch_step = now;
  index_[var.index()] = slot;
}

void CachedMemory::drop_line(std::uint32_t slot) {
  Line& line = lines_[slot];
  index_.erase(line.var.index());
  line.dirty = 0;
  line.ref = 0;
  free_.push_back(slot);
}

void CachedMemory::queue_residual_write(VarId var, pram::Word value) {
  // Last-wins dedup: a bypassed write may follow a write-back of the
  // same variable evicted earlier in the step, and the inner step
  // requires distinct write variables.
  const auto [idx, fresh] = residual_write_index_.try_emplace(
      var.index(), static_cast<std::uint32_t>(residual_writes_.size()));
  if (fresh) {
    residual_writes_.push_back({var, value});
  } else {
    residual_writes_[*idx].value = value;
  }
}

pram::MemStepCost CachedMemory::serve(const pram::AccessPlan& plan,
                                      pram::ServeContext& ctx) {
  const std::uint64_t now = advance_step_clock();
  ctx.stamp_step(now);
  refresh_fault_epoch(now);
  begin_step();
  classify_reads(plan.reads, ctx.read_values(), now);
  apply_writes(plan.writes, now);
  reserve_fills(now);
  // Eviction write-backs can never target a missed read's variable (a
  // write-back victim had a live line at classification, so if read it
  // was a hit), but a BYPASSED client write can: the variable missed as
  // a read, then every slot was pinned when its write arrived. The
  // builder joins such a variable into one request.
  const pram::AccessPlan& residual =
      residual_builder_.build(residual_reads_, residual_writes_, *inner_);
  residual_values_.assign(residual_reads_.size(), 0);
  residual_ctx_.bind(residual_values_);
  residual_ctx_.set_executor(ctx.executor());
  // The inner scheme is always served (even an empty residual), so its
  // step clock stays aligned with ours — fault onsets and scrub stamps
  // compare against one consistent clock across the layers.
  pram::MemStepCost cost = inner_->serve(residual, residual_ctx_);
  commit_results(ctx, residual_ctx_.flags());
  publish_step_stats();
  cost.time = std::max<std::uint64_t>(cost.time, 1);
  return cost;
}

pram::Word CachedMemory::peek(VarId var) const {
  const auto it = index_.find(var.index());
  if (it != index_.end() && lines_[it->second].dirty != 0) {
    return lines_[it->second].value;
  }
  return inner_->peek(var);
}

void CachedMemory::poke(VarId var, pram::Word value) {
  const auto it = index_.find(var.index());
  if (it != index_.end()) {
    // Keep the line coherent with the inner memory: after a poke both
    // layers agree, so the line is clean again.
    Line& line = lines_[it->second];
    line.value = value;
    line.dirty = 0;
    line.fill_step = steps_served();
  }
  inner_->poke(var, value);
}

bool CachedMemory::set_fault_hooks(const pram::FaultHooks* hooks) {
  const bool inner_accepts = inner_->set_fault_hooks(hooks);
  // Track the fault clock only under replica-level injection: when the
  // inner scheme rejected the hooks, degradation (if any) is applied by
  // an OUTER wrapper, which already observes the cache's outputs — the
  // cached values themselves never go stale.
  hooks_ = inner_accepts ? hooks : nullptr;
  dead_modules_seen_ = 0;
  last_death_step_ = 0;
  return inner_accepts;
}

pram::ScrubResult CachedMemory::scrub(std::uint64_t budget) {
  const pram::ScrubResult result = inner_->scrub(budget);
  if (result.relocated > 0) {
    // Conservative: every clean line filled at or before the current
    // step predates the relocation and is invalidated on its next hit.
    reloc_stamp_ = steps_served() + 1;
  }
  return result;
}

void CachedMemory::snapshot_body(pram::SnapshotSink& sink) {
  // Write back every dirty line BEFORE serializing the inner scheme: a
  // dirty line is the only up-to-date copy of its value, so serializing
  // first would checkpoint stale backing state. Freed slots are never
  // dirty (drop_line clears the bit), so a flat scan suffices. The
  // lines stay resident and become clean, exactly as if evicted and
  // refilled — observable values never change.
  std::uint64_t flushed = 0;
  for (Line& line : lines_) {
    if (line.dirty != 0) {
      inner_->poke(line.var, line.value);
      line.dirty = 0;
      line.fill_step = steps_served();
      ++flushed;
    }
  }
  if (flushed > 0) {
    stats_.writebacks += flushed;
    obs_count("cache.checkpoint_writebacks", flushed);
  }
  inner_->snapshot(sink);
}

bool CachedMemory::restore_body(pram::SnapshotSource& source) {
  if (!inner_->restore(source)) {
    return false;
  }
  // Restart cold: cached values are a performance artifact the inner
  // snapshot already covers (the flush above made them clean), and the
  // fault-clock stamps below reference a step clock that just changed.
  lines_.clear();
  index_.clear();
  free_.clear();
  hand_ = 0;
  dead_modules_seen_ = 0;
  last_death_step_ = 0;
  reloc_stamp_ = 0;
  return true;
}

}  // namespace pramsim::cache
