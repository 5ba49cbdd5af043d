#include "majority/scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pramsim::majority {

namespace {

constexpr std::uint32_t kNoRequest = ~0U;

/// Stage-1 interleaved turns given to each cluster member before the
/// stage-2 drain begins (LPP use O(log log n); 2 suffice empirically and
/// stage 2 mops up stragglers either way).
constexpr std::uint64_t kStage1Turns = 2;

/// One module serves the lowest (var, copy) probe.
bool outranks(std::span<const VarRequest> requests, std::uint32_t a,
              std::uint32_t copy_a, std::uint32_t b, std::uint32_t copy_b) {
  const std::uint32_t var_a = requests[a].var.value();
  const std::uint32_t var_b = requests[b].var.value();
  return var_a < var_b || (var_a == var_b && copy_a < copy_b);
}

/// Fold one more probe into a module's claim.
void contend(ModuleClaim& claim, std::span<const VarRequest> requests,
             std::uint32_t request, std::uint32_t copy) {
  ++claim.queue;
  if (outranks(requests, request, copy, claim.request, claim.copy)) {
    claim.request = request;
    claim.copy = copy;
  }
}

/// Calls probe(module, request, copy) for every unaccessed copy of every
/// request in `active`, in (active, copy) order.
template <typename Probe>
void for_each_probe(const ClusterProtocol& protocol,
                    std::span<const std::uint32_t> active, Probe&& probe) {
  const std::uint32_t r = protocol.redundancy();
  for (const auto idx : active) {
    const std::uint64_t mask = protocol.mask(idx);
    const ModuleId* copies = protocol.copies(idx).data();
    for (std::uint32_t i = 0; i < r; ++i) {
      if (((mask >> i) & 1ULL) == 0) {
        probe(copies[i].value(), idx, i);
      }
    }
  }
}

}  // namespace

void ClusterProtocol::play(Kernel& kernel,
                           std::span<const std::uint32_t> active, Stage stage,
                           ScheduleResult& result) {
  const RoundOutcome outcome = kernel.round(*this, active, stage);
  result.work += outcome.served;
  result.max_queue = std::max(result.max_queue, outcome.max_queue);
  ++result.rounds;
  ++(stage == Stage::kInterleaved ? result.stage1_rounds
                                  : result.stage2_rounds);
  result.live_per_round.push_back(live_);
}

void ClusterProtocol::run(const memmap::MemoryMap& map,
                          std::span<const VarRequest> requests,
                          const SchedulerConfig& config, Kernel& kernel,
                          ScheduleResult& result) {
  r_ = map.redundancy();
  c_ = config.c;
  s_ = std::max<std::uint32_t>(config.cluster_size, 1);
  modules_ = map.num_modules();
  PRAMSIM_ASSERT(r_ <= 64);
  PRAMSIM_ASSERT(c_ >= 1 && c_ <= r_);

  result.clear();
  requests_ = requests;
  const auto count = static_cast<std::uint32_t>(requests.size());
  if (count == 0) {
    return;
  }

#ifndef NDEBUG
  {
    std::vector<std::uint32_t> vars;
    vars.reserve(count);
    for (const auto& req : requests) {
      vars.push_back(req.var.value());
    }
    std::sort(vars.begin(), vars.end());
    PRAMSIM_ASSERT_MSG(std::adjacent_find(vars.begin(), vars.end()) ==
                           vars.end(),
                       "requests must be deduplicated");
  }
#endif

  accessed_.assign(count, 0);
  result.accessed_mask.assign(count, 0);
  mask_ = result.accessed_mask.data();
  vars_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    vars_[i] = requests[i].var;
  }
  result.copies.resize(static_cast<std::size_t>(count) * r_);
  map.copies_batch(vars_, result.copies);
  copies_ = result.copies.data();
  live_ = count;

  if (config.all_at_once) {
    // Ablation mode: every live request probes every round.
    while (live_ > 0) {
      active_.clear();
      for (std::uint32_t i = 0; i < count; ++i) {
        if (live(i)) {
          active_.push_back(i);
        }
      }
      play(kernel, active_, Stage::kDrain, result);
    }
  } else {
    // ---- stage 1: interleaved cluster turns --------------------------
    // Slot (cluster k, member j) is requester id k*s + j. Requests that
    // share a requester id keep the last one for stage 1; the stage-2
    // drain completes the others regardless. Requesters past the
    // clusters never get a turn.
    const std::uint32_t n_clusters = (config.n_processors + s_ - 1) / s_;
    slots_.assign(static_cast<std::size_t>(n_clusters) * s_, kNoRequest);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t id = requests[i].requester.value();
      if (id < slots_.size()) {
        slots_[id] = i;
      }
    }
    const std::uint64_t stage1_phases = kStage1Turns * s_;
    for (std::uint64_t phase = 0; phase < stage1_phases && live_ > 0;
         ++phase) {
      active_.clear();
      for (std::uint32_t k = 0; k < n_clusters; ++k) {
        const auto member = static_cast<std::uint32_t>((phase + k) % s_);
        const std::uint32_t idx =
            slots_[static_cast<std::size_t>(k) * s_ + member];
        if (idx != kNoRequest && live(idx)) {
          active_.push_back(idx);
        }
      }
      if (active_.empty()) {
        continue;  // no round consumed: nothing was scheduled this phase
      }
      play(kernel, active_, Stage::kInterleaved, result);
    }
    result.live_after_stage1 = live_;

    // ---- stage 2: drain leftovers, one variable per cluster ----------
    pending_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      if (live(i)) {
        pending_.push_back(i);
      }
    }
    // One live variable assigned per cluster; clusters refill from the
    // pending queue as their variable dies.
    std::size_t next_pending = 0;
    active_.clear();
    while (true) {
      std::erase_if(active_, [&](std::uint32_t i) { return !live(i); });
      while (active_.size() < n_clusters && next_pending < pending_.size()) {
        const std::uint32_t i = pending_[next_pending++];
        if (live(i)) {
          active_.push_back(i);
        }
      }
      if (active_.empty()) {
        break;
      }
      play(kernel, active_, Stage::kDrain, result);
    }
  }

  PRAMSIM_ASSERT(live_ == 0);
  requests_ = {};  // drop the views of the caller's batch and result
  mask_ = nullptr;
  copies_ = nullptr;
}

RoundOutcome FirstClaimRound::round(ClusterProtocol& protocol,
                                    std::span<const std::uint32_t> active,
                                    Stage /*stage*/) {
  if (claimed_.size() != protocol.num_modules()) {
    claimed_ = util::DynamicBitset(protocol.num_modules());
  }
  const auto requests = protocol.requests();
  first_.clear();
  later_.clear();
  for_each_probe(protocol, active,
                 [&](std::uint32_t module, std::uint32_t idx,
                     std::uint32_t copy) {
                   if (!claimed_.test(module)) {
                     claimed_.set(module);
                     first_.push_back({module, idx, copy, 1});
                     return;
                   }
                   auto [later, fresh] =
                       later_.try_emplace(module, {module, idx, copy, 1});
                   if (!fresh) {
                     contend(*later, requests, idx, copy);
                   }
                 });
  // Contended modules drop their bit here, so the resolution pass tells
  // them apart without a lookup; every other bit clears as it resolves.
  for (const auto slot : later_.touched()) {
    claimed_.reset(later_.key_at(slot));
  }
  RoundOutcome outcome;
  for (const ModuleClaim& first : first_) {
    ModuleClaim winner = first;
    if (claimed_.test(first.module)) {
      claimed_.reset(first.module);
    } else {
      const ModuleClaim& later = *later_.find(first.module);
      if (outranks(requests, later.request, later.copy, first.request,
                   first.copy)) {
        winner = later;
      }
      winner.queue = first.queue + later.queue;
    }
    outcome.max_queue =
        std::max<std::uint64_t>(outcome.max_queue, winner.queue);
    if (protocol.access(winner.request, winner.copy)) {
      ++outcome.served;
    }
  }
  return outcome;
}

}  // namespace pramsim::majority
