#include "ida/ida_memory.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::ida {

IdaMemory::IdaMemory(std::uint64_t m_vars, IdaMemoryConfig config)
    : m_vars_(m_vars),
      config_(config),
      disperser_({config.b, config.d}),
      n_blocks_(util::ceil_div(m_vars, config.b)),
      placement_(n_blocks_, config.n_modules, config.d, config.seed) {
  PRAMSIM_ASSERT(config_.n_modules >= config_.d);
  config_.region_blocks = std::max<std::uint32_t>(config_.region_blocks, 1);
  n_regions_ = util::ceil_div(n_blocks_, config_.region_blocks);
  // Region-row geometry (see the header): d share spans of R words, the
  // matching checksum spans when check_shares, then the written-block
  // flag bits.
  const std::size_t R = config_.region_blocks;
  flag_base_ = static_cast<std::size_t>(config_.d) * R *
               (config_.check_shares ? 2 : 1);
  rows_ = util::PagedRows<pram::Word>(flag_base_ + (R + 63) / 64);
  identity_indices_.resize(config_.b);
  for (std::uint32_t j = 0; j < config_.b; ++j) {
    identity_indices_[j] = j;
  }
  encode_scratch_.resize(config_.d);
  block_placement_.resize(config_.d);
}

pram::Word IdaMemory::share_checksum(std::uint64_t block, std::uint32_t j,
                                     pram::Word value) {
  util::SplitMix64 mix(value ^ block * 0x9E3779B97F4A7C15ULL ^
                       (j + 1) * 0xBF58476D1CE4E5B9ULL);
  return mix.next();
}

bool IdaMemory::block_written(std::uint64_t block) const {
  const pram::Word* row = rows_.find(region_of_block(block));
  if (row == nullptr) {
    return false;
  }
  const std::uint64_t t = block % config_.region_blocks;
  const auto bits = static_cast<std::uint64_t>(row[flag_base_ + t / 64]);
  return ((bits >> (t % 64)) & 1ULL) != 0;
}

pram::Word IdaMemory::checksum_at(std::uint64_t block,
                                  std::uint32_t j) const {
  if (!block_written(block)) {
    // Unwritten block: the stored checksum is, by definition, the one
    // the zero encoding's writer would have computed.
    return share_checksum(block, j, 0);
  }
  const std::size_t R = config_.region_blocks;
  const pram::Word* checksums = rows_.find(region_of_block(block)) +
                                static_cast<std::size_t>(config_.d) * R;
  return checksums[static_cast<std::size_t>(j) * R + block % R];
}

pram::Word IdaMemory::share_at(std::uint64_t block, std::uint32_t j) const {
  const pram::Word* row = rows_.find(region_of_block(block));
  if (row == nullptr) {
    return 0;
  }
  const std::size_t R = config_.region_blocks;
  return row[static_cast<std::size_t>(j) * R + block % R];
}

void IdaMemory::placement_into_current(std::uint64_t block,
                                       std::span<ModuleId> out) const {
  placement_.copies_into(VarId(static_cast<std::uint32_t>(block)), out);
  relocations_.apply(block, out);
}

bool IdaMemory::recover_block(std::uint64_t block, pram::Word* out,
                              std::uint32_t* erased,
                              std::uint32_t* faulty) const {
  if (hooks_ == nullptr) {
    const std::size_t R = config_.region_blocks;
    const pram::Word* row = rows_.find(region_of_block(block));
    if (row == nullptr) {
      // Untouched region: the zero block decodes to zeros, exactly.
      std::fill_n(out, config_.b, 0);
    } else {
      disperser_.decode_regions(identity_indices_, row + block % R, R, 1,
                                out);
    }
    return true;
  }
  std::vector<std::uint32_t> indices;
  std::vector<pram::Word> vals;
  indices.reserve(config_.b);
  vals.reserve(config_.b);
  std::vector<ModuleId> modules(config_.d);
  placement_into_current(block, modules);
  for (std::uint32_t j = 0; j < config_.d; ++j) {
    if (hooks_->module_dead(modules[j], steps_served())) {
      ++*erased;
      continue;
    }
    if (indices.size() == config_.b) {
      continue;  // already have enough survivors; keep counting erasures
    }
    pram::Word value = share_at(block, j);
    pram::Word stuck = 0;
    const bool is_stuck = hooks_->stuck_at(block, j, steps_served(), stuck);
    if (is_stuck) {
      value = stuck;
    }
    if (config_.check_shares &&
        share_checksum(block, j, value) != checksum_at(block, j)) {
      // DETECTED bad share (stuck cell or corrupted store): its value no
      // longer matches the checksum its writer stored, so it is excluded
      // from the interpolation like an erasure — the checksum turns
      // silent poison into a known-bad share.
      ++*erased;
      obs_event(obs::EventKind::kChecksumReject, block, j);
      obs_count("ida.checksum.rejects");
      continue;
    }
    if (is_stuck) {
      // Undetected stuck share: it joins the interpolation and silently
      // poisons the whole block (bare IDA corrects erasures, not errors).
      ++*faulty;
    }
    indices.push_back(j);
    vals.push_back(value);
  }
  if (indices.size() < config_.b) {
    std::fill_n(out, config_.b, 0);
    return false;
  }
  // Same interpolation recover_words performs, routed through the bulk
  // codec (count 1, stride 1): the recovery matrix folds the
  // value-independent Lagrange factors, so the words are bit-identical
  // by exact GF(256) arithmetic.
  disperser_.decode_regions(indices, vals.data(), 1, 1, out);
  return true;
}

void IdaMemory::decode_groups_healthy(const pram::AccessPlan& plan) {
  const std::size_t n_groups = plan.num_groups();
  if (n_groups == 0) {
    return;
  }
  const std::size_t R = config_.region_blocks;
  share_spans_.resize(n_groups * config_.b);
  pram::Word* spans = share_spans_.data();
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::uint64_t blk = plan.group_keys[g];
    const pram::Word* row = rows_.find(region_of_block(blk));
    for (std::uint32_t j = 0; j < config_.b; ++j) {
      // Untouched rows read as zeros: the zero block's shares.
      spans[j * n_groups + g] = row == nullptr ? 0 : row[j * R + blk % R];
    }
  }
  disperser_.decode_regions(identity_indices_, spans, n_groups,
                            static_cast<std::uint32_t>(n_groups),
                            decoded_store_.data());
}

IdaMemory::DecodeStatus IdaMemory::decode_block(std::uint64_t block,
                                                pram::Word* out) {
  std::uint32_t erased = 0;
  std::uint32_t faulty = 0;
  const bool ok = recover_block(block, out, &erased, &faulty);
  if (hooks_ == nullptr) {
    return DecodeStatus::kOk;
  }
  // Share-unit counters accrue per decode; the READ-unit counters
  // (faults_masked, uncorrectable) are attributed per variable read by
  // the caller, so cross-scheme reliability ratios compare like units.
  reliability_.erasures_skipped += erased;
  reliability_.units_faulty += erased + faulty;
  if (!ok) {
    reliability_.shares_short +=
        config_.b - (config_.d - std::min(erased, config_.d));
    obs_event(obs::EventKind::kUncorrectable, block, erased, faulty);
    obs_count("ida.blocks.lost");
    return DecodeStatus::kFailed;
  }
  if (erased + faulty > 0) {
    obs_event(obs::EventKind::kDegradedDecode, block, erased, faulty);
    obs_count("ida.blocks.degraded");
    return DecodeStatus::kDegraded;
  }
  return DecodeStatus::kOk;
}

void IdaMemory::encode_block(std::uint64_t block,
                             std::span<const pram::Word> values) {
  // One block is a bulk encode of count 1 (stride 1 packs the d share
  // words densely into the scratch) — same Horner products the classic
  // per-word encode_words computed, via the generator-matrix rows.
  disperser_.encode_regions(values.data(), 1, encode_scratch_.data(), 1);
  if (hooks_ != nullptr) {
    placement_into_current(block, block_placement_);
  }
  store_block(block, encode_scratch_.data(), 1, block_placement_);
}

void IdaMemory::store_block(std::uint64_t block, const pram::Word* shares,
                            std::size_t stride,
                            std::span<const ModuleId> modules) {
  const std::size_t R = config_.region_blocks;
  PRAMSIM_ASSERT(block < n_blocks_);
  pram::Word* row = rows_.insert(region_of_block(block));
  const std::uint64_t t = block % R;
  row[flag_base_ + t / 64] = static_cast<pram::Word>(
      static_cast<std::uint64_t>(row[flag_base_ + t / 64]) |
      (1ULL << (t % 64)));
  pram::Word* checksums = row + static_cast<std::size_t>(config_.d) * R;
  if (hooks_ != nullptr) {
    ++store_ops_;
  }
  for (std::uint32_t j = 0; j < config_.d; ++j) {
    const pram::Word encoded = shares[j * stride];
    pram::Word word = encoded;
    if (hooks_ != nullptr) {
      if (hooks_->module_dead(modules[j], steps_served())) {
        ++reliability_.writes_dropped;
        continue;
      }
      if (hooks_->corrupt_write(block, j, store_ops_, steps_served(),
                                word)) {
        ++reliability_.corrupt_stores;
      }
    }
    row[j * R + t] = word;
    if (config_.check_shares) {
      // The checksum is computed by the WRITER from the true encoded
      // word (and modeled as stored intact), so a corrupted data word
      // leaves a mismatched pair the next decode detects.
      checksums[j * R + t] = share_checksum(block, j, encoded);
    }
  }
}

pram::MemStepCost IdaMemory::serve(const pram::AccessPlan& plan,
                                   pram::ServeContext& ctx) {
  // An empty plan serves as a step with no groups, grouped or not.
  PRAMSIM_ASSERT(plan.grouped() || plan.requests.empty());
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  advance_step_clock();
  obs_count("ida.steps");
  obs_count("ida.reads", plan.reads.size());
  obs_count("ida.writes", plan.writes.size());
  obs::PhaseSet* timing = obs_timing();
  pram::MemStepCost cost;
  const std::uint64_t share_accesses_before = share_accesses_;
  const std::uint32_t b = config_.b;
  const std::uint32_t d = config_.d;

  // The plan's groups are this scheme's blocks, ascending; each group is
  // read, written, or both. Every group's placement is computed once per
  // step, all in one batch call, then the scrub relocations go on top.
  constexpr std::uint8_t kGroupRead = 1;
  constexpr std::uint8_t kGroupWrite = 2;
  const std::size_t n_groups = plan.num_groups();
  group_ops_.assign(n_groups, 0);
  group_status_.assign(n_groups, DecodeStatus::kOk);
  group_blocks_.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    group_blocks_[g] = VarId(static_cast<std::uint32_t>(plan.group_keys[g]));
  }
  placements_.resize(n_groups * d);
  placement_.copies_batch(group_blocks_, placements_);
  for (std::size_t g = 0; g < n_groups; ++g) {
    for (std::uint32_t i = plan.group_offsets[g];
         i < plan.group_offsets[g + 1]; ++i) {
      const std::uint32_t req = plan.group_requests[i];
      if (plan.requests[req].is_read) {
        group_ops_[g] |= kGroupRead;
      }
      if (plan.request_write[req] != pram::AccessPlan::kNone) {
        group_ops_[g] |= kGroupWrite;
      }
    }
    relocations_.apply(plan.group_keys[g], {placements_.data() + g * d, d});
  }

  // Module round accounting: modules serve one share per round, so a
  // phase's duration is its maximum per-module share count. The load
  // array is per-instance and reset via the touched list; the phase max
  // is tracked incrementally.
  module_load_.resize(config_.n_modules, 0);
  pick_keys_.resize(d);
  std::uint32_t phase_max = 0;
  auto reset_loads = [&] {
    for (const auto module : touched_modules_) {
      module_load_[module] = 0;
    }
    touched_modules_.clear();
    phase_max = 0;
  };
  auto bump = [&](ModuleId module) {
    const auto m = static_cast<std::uint32_t>(module.index());
    if (module_load_[m]++ == 0) {
      touched_modules_.push_back(m);
    }
    phase_max = std::max(phase_max, module_load_[m]);
  };
  auto charge_read_group = [&](std::size_t g) {
    // Pick the b least-loaded modules among the d holding shares — the
    // d-b slack is what lets the scheme dodge congestion. Each key packs
    // (load, share index), read once before any bump, so the b smallest
    // keys are the first b of the stable least-loaded order (d <= 255,
    // so the share index fits the low byte).
    const ModuleId* modules = placements_.data() + g * d;
    for (std::uint32_t j = 0; j < d; ++j) {
      pick_keys_[j] =
          (static_cast<std::uint64_t>(module_load_[modules[j].index()])
           << 8) |
          j;
    }
    if (b < d) {
      std::nth_element(pick_keys_.begin(), pick_keys_.begin() + b,
                       pick_keys_.end());
    }
    for (std::uint32_t j = 0; j < b; ++j) {
      bump(modules[pick_keys_[j] & 0xFF]);
    }
    share_accesses_ += b;
    vars_processed_ += b;
  };
  auto charge_write_group = [&](std::size_t g) {
    const ModuleId* modules = placements_.data() + g * d;
    for (std::uint32_t j = 0; j < d; ++j) {
      bump(modules[j]);
    }
    share_accesses_ += d;
    vars_processed_ += b;
  };
  decoded_store_.resize(n_groups * b);
  auto decode_faulted_group = [&](std::size_t g) {
    group_status_[g] =
        decode_block(plan.group_keys[g], decoded_store_.data() + g * b);
  };

  // ---- phase 1: reads (pre-step state) -----------------------------
  reset_loads();
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (group_ops_[g] & kGroupRead) {
      charge_read_group(g);
    }
  }
  {
    obs::ScopedPhase timer(timing, obs::Phase::kDecode);
    if (hooks_ == nullptr) {
      // Healthy: every group decodes now, write-only ones included (their
      // read-modify-write fetch), in one bulk codec call.
      decode_groups_healthy(plan);
    } else {
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (group_ops_[g] & kGroupRead) {
          decode_faulted_group(g);
        }
      }
    }
  }
  if (hooks_ != nullptr) {
    ctx.enable_flags();
  }
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    const std::size_t g = plan.request_group[plan.read_request[i]];
    read_values[i] = decoded_store_[g * b + plan.reads[i].index() % b];
    ++vars_accessed_;
    if (hooks_ != nullptr) {
      ++reliability_.reads_served;
      // Every read of an under-threshold block is a FLAGGED loss;
      // reads of a degraded-but-reconstructed block are masked faults.
      if (group_status_[g] == DecodeStatus::kFailed) {
        ctx.flag_read(i);
        ++reliability_.uncorrectable;
      } else if (group_status_[g] == DecodeStatus::kDegraded) {
        ++reliability_.faults_masked;
      }
    }
  }
  const std::uint32_t read_rounds = phase_max;

  // ---- phase 2: writes (read-modify-write per block) ---------------
  reset_loads();
  obs::ScopedPhase encode_timer(timing, obs::Phase::kEncode);
  written_groups_.clear();
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (!(group_ops_[g] & kGroupWrite)) {
      continue;
    }
    // The block must be fetched (b shares) unless this step already read
    // it, then re-encoded and fully rewritten (d shares).
    if (!(group_ops_[g] & kGroupRead)) {
      charge_read_group(g);
      if (hooks_ != nullptr) {
        decode_faulted_group(g);
      }
    }
    charge_write_group(g);
    pram::Word* block_vals = decoded_store_.data() + g * b;
    for (std::uint32_t j = plan.group_offsets[g];
         j < plan.group_offsets[g + 1]; ++j) {
      const std::uint32_t w = plan.request_write[plan.group_requests[j]];
      if (w == pram::AccessPlan::kNone) {
        continue;
      }
      block_vals[plan.writes[w].var.index() % b] = plan.writes[w].value;
      ++vars_accessed_;
    }
    written_groups_.push_back(static_cast<std::uint32_t>(g));
  }
  // One bulk encode of every written block, then the stores, ascending.
  const std::size_t n_written = written_groups_.size();
  if (n_written > 0) {
    write_blocks_.resize(n_written * b);
    for (std::size_t w = 0; w < n_written; ++w) {
      std::copy_n(decoded_store_.data() +
                      static_cast<std::size_t>(written_groups_[w]) * b,
                  b, write_blocks_.data() + w * b);
    }
    share_spans_.resize(n_written * d);
    disperser_.encode_regions(write_blocks_.data(),
                              static_cast<std::uint32_t>(n_written),
                              share_spans_.data(), n_written);
    for (std::size_t w = 0; w < n_written; ++w) {
      const std::size_t g = written_groups_[w];
      store_block(plan.group_keys[g], share_spans_.data() + w, n_written,
                  {placements_.data() + g * d, d});
    }
  }
  const std::uint32_t write_rounds = phase_max;

  cost.time = read_rounds + write_rounds;
  cost.work = share_accesses_ - share_accesses_before;
  cost.max_queue = std::max(read_rounds, write_rounds);
  return cost;
}

pram::Word IdaMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < m_vars_);
  std::uint32_t erased = 0;
  std::uint32_t faulty = 0;
  std::vector<pram::Word> vals(config_.b);
  (void)recover_block(block_of(var), vals.data(), &erased, &faulty);
  return vals[var.index() % config_.b];
}

void IdaMemory::poke(VarId var, pram::Word value) {
  PRAMSIM_ASSERT(var.index() < m_vars_);
  const auto blk = block_of(var);
  std::vector<pram::Word> vals(config_.b);
  (void)decode_block(blk, vals.data());
  vals[var.index() % config_.b] = value;
  encode_block(blk, vals);
}

pram::ScrubResult IdaMemory::scrub(std::uint64_t budget) {
  pram::ScrubResult result;
  if (hooks_ == nullptr || budget == 0) {
    return result;
  }
  std::vector<ModuleId> modules(config_.d);
  for (std::uint64_t n = 0; n < budget && n < n_blocks_; ++n) {
    const std::uint64_t block = scrub_cursor_;
    scrub_cursor_ = (scrub_cursor_ + 1) % n_blocks_;
    ++result.scanned;
    placement_into_current(block, modules);
    std::uint32_t dead_shares = 0;
    for (std::uint32_t j = 0; j < config_.d; ++j) {
      dead_shares += hooks_->module_dead(modules[j], steps_served()) ? 1 : 0;
    }
    if (dead_shares == 0) {
      continue;  // full share set alive: nothing to re-disperse
    }
    if (!block_written(block)) {
      // Unwritten block: every share still reads 0, the zero block's
      // share (whether or not a neighbor write materialized its region
      // row), which relocation preserves — so
      // re-homing the dead shares restores full redundancy without
      // writing any share words.
      const std::uint32_t relocated = relocations_.relocate_dead(
          *hooks_, steps_served(), config_.n_modules, config_.seed, block,
          modules, observer(), result, reliability_);
      if (relocated > 0) {
        ++result.repaired;
        ++reliability_.units_repaired;
        obs_event(obs::EventKind::kScrubRepair, block, relocated);
      }
      continue;
    }
    std::uint32_t erased = 0;
    std::uint32_t faulty = 0;
    // Reconstruct OUTSIDE the read path: recover_block counts nothing
    // into the read telemetry, so scrubbing never inflates masked rates.
    std::vector<pram::Word> vals(config_.b);
    const bool ok = recover_block(block, vals.data(), &erased, &faulty);
    result.work += config_.b;
    if (!ok) {
      continue;  // below threshold: the block is lost, not repairable
    }
    const std::uint32_t relocated = relocations_.relocate_dead(
        *hooks_, steps_served(), config_.n_modules, config_.seed, block,
        modules, observer(), result, reliability_);
    // Re-disperse the reconstructed block onto the repaired placement
    // (a stuck share that silently joined the interpolation re-disperses
    // its poison — IDA scrubbing repairs erasures, not errors). Shares
    // that sat on dead modules hold stale words, so the rewrite is
    // needed even when every share was re-homed.
    encode_block(block, vals);
    result.work += config_.d;
    ++result.repaired;
    ++reliability_.units_repaired;
    obs_event(obs::EventKind::kScrubRepair, block, relocated);
  }
  return result;
}

void IdaMemory::snapshot_body(pram::SnapshotSink& sink) {
  put_u32(sink, config_.b);
  put_u32(sink, config_.d);
  put_u32(sink, config_.region_blocks);
  put_u32(sink, config_.check_shares ? 1u : 0u);
  put_u64(sink, rows_.row_len());
  put_rows(sink, rows_);
  relocations_.snapshot(sink);
  put_u64(sink, store_ops_);
  put_u64(sink, scrub_cursor_);
}

bool IdaMemory::restore_body(pram::SnapshotSource& source) {
  std::uint32_t b = 0;
  std::uint32_t d = 0;
  std::uint32_t region_blocks = 0;
  std::uint32_t check_shares = 0;
  std::uint64_t row_words = 0;
  if (!get_u32(source, b) || b != config_.b || !get_u32(source, d) ||
      d != config_.d || !get_u32(source, region_blocks) ||
      region_blocks != config_.region_blocks ||
      !get_u32(source, check_shares) ||
      (check_shares != 0) != config_.check_shares ||
      !get_u64(source, row_words) || row_words != rows_.row_len()) {
    return false;
  }
  return get_rows(source, rows_, n_regions_) &&
         relocations_.restore(source, n_blocks_ * config_.d,
                              config_.n_modules) &&
         get_u64(source, store_ops_) && get_u64(source, scrub_cursor_);
}

double IdaMemory::work_amplification() const {
  return vars_accessed_ > 0 ? static_cast<double>(vars_processed_) /
                                  static_cast<double>(vars_accessed_)
                            : 0.0;
}

}  // namespace pramsim::ida
