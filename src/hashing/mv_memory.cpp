#include "hashing/mv_memory.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace pramsim::hashing {

MvMemory::MvMemory(std::uint64_t m_vars, MvMemoryConfig config)
    : config_(config),
      rng_(config.seed),
      hash_(kKWise, config.n_modules, rng_),
      cells_(m_vars, 0) {
  PRAMSIM_ASSERT(m_vars >= 1 && config_.n_modules >= 1);
}

std::uint32_t MvMemory::module_of(VarId var) const {
  return static_cast<std::uint32_t>(hash_(var.value()));
}

pram::MemStepCost MvMemory::serve(const pram::AccessPlan& plan,
                                  pram::ServeContext& ctx) {
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  advance_step_clock();
  obs_count("hashed.steps");
  obs_count("hashed.reads", plan.reads.size());
  obs_count("hashed.writes", plan.writes.size());

  // The plan's requests are the distinct variables of the step: count
  // them straight into the dense per-module load array and take the max
  // over the touched modules.
  load_scratch_.resize(config_.n_modules, 0);
  touched_scratch_.clear();
  std::uint32_t max_load = 0;
  for (const auto& request : plan.requests) {
    PRAMSIM_ASSERT(request.var.index() < cells_.size());
    const std::uint32_t module = module_of(request.var);
    if (load_scratch_[module]++ == 0) {
      touched_scratch_.push_back(module);
    }
    max_load = std::max(max_load, load_scratch_[module]);
  }
  for (const auto module : touched_scratch_) {
    load_scratch_[module] = 0;
  }
  load_stats_.add(static_cast<double>(max_load));

  // The value phase: requests are distinct cells, so request ranges
  // serve independently — a read+write of one variable is one request,
  // served read-before-write by its range.
  if (hooks_ != nullptr) {
    ctx.enable_flags();
  }
  const std::size_t n_reads = plan.reads.size();
  const std::size_t n_requests = plan.requests.size();
  util::Executor* executor = ctx.executor();
  const std::size_t workers =
      backend_ == pram::ServeBackend::kGroupParallel && executor != nullptr
          ? executor->plan_workers(n_requests)
          : 1;
  chunk_stats_.assign(workers, {});
  auto body = [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    pram::ReliabilityStats& stats = chunk_stats_[chunk];
    for (std::size_t j = lo; j < hi; ++j) {
      // Requests lead with the reads in plan order, so a request index
      // below n_reads IS its read index.
      if (j < n_reads) {
        bool flagged = false;
        read_values[j] = faulted_read(plan.reads[j], &flagged, stats);
        if (flagged) {
          ctx.flag_read(j);
        }
      }
      const std::uint32_t w = plan.request_write[j];
      if (w != pram::AccessPlan::kNone) {
        faulted_write(plan.writes[w].var, plan.writes[w].value, stats);
      }
    }
  };
  if (workers > 1) {
    executor->run_with(n_requests, workers, body);
  } else {
    body(0, 0, n_requests);
  }
  // Counters are commutative sums: any worker count folds to the same
  // totals.
  for (const auto& stats : chunk_stats_) {
    reliability_.merge(stats);
  }

  if (config_.rehash_threshold != 0 && max_load > config_.rehash_threshold) {
    // Draw a fresh hash function. In a real machine this migrates every
    // cell (an O(m/M + log n) expected-time global operation); we charge
    // one extra max_load of time and count the event.
    hash_ = PolynomialHash(kKWise, config_.n_modules, rng_);
    ++rehashes_;
    obs_event(obs::EventKind::kRehash, rehashes_, 0, max_load);
    obs_count("hashed.rehashes");
  }

  return pram::MemStepCost{.time = max_load,
                           .work = plan.requests.size(),
                           .live_after_stage1 = 0,
                           .max_queue = max_load};
}

pram::Word MvMemory::faulted_read(VarId var, bool* flagged,
                                  pram::ReliabilityStats& stats) {
  if (hooks_ == nullptr) {
    return cells_[var.index()];
  }
  const std::uint64_t step = steps_served();
  ++stats.reads_served;
  if (hooks_->module_dead(ModuleId(module_of(var)), step)) {
    ++stats.uncorrectable;
    ++stats.erasures_skipped;
    ++stats.units_faulty;
    *flagged = true;
    return 0;
  }
  pram::Word value = cells_[var.index()];
  pram::Word stuck = 0;
  if (hooks_->stuck_at(var.index(), 0, step, stuck)) {
    ++stats.units_faulty;
    value = stuck;  // single copy: nothing to out-vote the stuck cell
  }
  return value;
}

void MvMemory::faulted_write(VarId var, pram::Word value,
                             pram::ReliabilityStats& stats) {
  if (hooks_ != nullptr) {
    const std::uint64_t step = steps_served();
    if (hooks_->module_dead(ModuleId(module_of(var)), step)) {
      ++stats.writes_dropped;
      return;
    }
    if (hooks_->corrupt_write(var.index(), 0, step, step, value)) {
      ++stats.corrupt_stores;
    }
  }
  cells_[var.index()] = value;
}

std::vector<VarId> MvMemory::adversarial_vars(std::uint32_t count,
                                              std::uint64_t seed) const {
  const std::uint64_t m = cells_.size();
  count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, m));
  if (count == 0) {
    return {};
  }
  // Scan a window of the address space (expected count * M preimage
  // tries), bucketing by module, until one module collects `count`
  // preimages. The seed only rotates the scan origin: the attack is
  // deterministic given the hash.
  const std::uint64_t scan_cap = std::min<std::uint64_t>(
      m, 1024 + 8ull * count * config_.n_modules);
  const std::uint64_t origin = util::SplitMix64(seed).next() % m;
  std::unordered_map<std::uint32_t, std::vector<VarId>> buckets;
  std::size_t best = 0;
  std::uint32_t best_module = 0;
  for (std::uint64_t i = 0; i < scan_cap; ++i) {
    const VarId var(static_cast<std::uint32_t>((origin + i) % m));
    auto& bucket = buckets[module_of(var)];
    bucket.push_back(var);
    if (bucket.size() >= count) {
      return bucket;
    }
    if (bucket.size() > best) {
      best = bucket.size();
      best_module = module_of(var);
    }
  }
  return buckets[best_module];
}

pram::Word MvMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  if (hooks_ != nullptr) {
    if (hooks_->module_dead(ModuleId(module_of(var)), steps_served())) {
      return 0;
    }
    pram::Word stuck = 0;
    if (hooks_->stuck_at(var.index(), 0, steps_served(), stuck)) {
      return stuck;
    }
  }
  return cells_[var.index()];
}

void MvMemory::poke(VarId var, pram::Word value) {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  // Out-of-band initialization still lands on faulty hardware: a dead
  // module never learns the value.
  faulted_write(var, value, reliability_);
}

}  // namespace pramsim::hashing
