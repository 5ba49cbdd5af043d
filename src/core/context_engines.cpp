#include "core/context_engines.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "majority/scheduler.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

RanadeButterflyEngine::RanadeButterflyEngine(
    std::shared_ptr<const memmap::MemoryMap> map, std::uint32_t n_processors)
    : map_(std::move(map)), n_processors_(n_processors) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT_MSG(map_->redundancy() == 1,
                     "Ranade's emulation keeps a single hashed copy");
  shape_ = net::butterfly(map_->num_modules());
  PRAMSIM_ASSERT(n_processors_ >= 1);
}

majority::EngineResult RanadeButterflyEngine::run_step(
    std::span<const majority::VarRequest> requests) {
  majority::EngineResult result;
  result.accessed_mask.assign(requests.size(), 1);  // the single copy
  if (requests.empty()) {
    return result;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(requests.size());
  std::vector<ModuleId> copy(1);
  for (const auto& req : requests) {
    map_->copies_into(req.var, copy);
    // Source: the requester's input row (processors spread over rows).
    const std::uint32_t src =
        req.requester.value() % shape_.rows;
    pairs.emplace_back(src, copy[0].value());
  }
  const auto load = net::route_congestion(shape_, pairs);
  // Pipelined store-and-forward with combining: dilation + congestion - 1
  // cycles for the batch, doubled for the reply sweep.
  result.time = 2ULL * (load.dilation + load.max_congestion - 1);
  result.work = requests.size();
  result.stats.phases = 1;
  result.stats.max_queue = load.max_congestion;
  return result;
}

std::uint32_t hb_c(std::uint64_t m_vars) {
  PRAMSIM_ASSERT(m_vars >= 16);
  const double logm = std::log2(static_cast<double>(m_vars));
  const double loglogm = std::log2(logm);
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::ceil(logm / loglogm)));
}

HbExpanderEngine::HbExpanderEngine(
    std::shared_ptr<const memmap::MemoryMap> map,
    majority::SchedulerConfig scheduler, std::uint32_t graph_degree,
    std::uint64_t graph_seed)
    : map_(std::move(map)),
      scheduler_(scheduler),
      graph_(scheduler.n_processors, graph_degree, graph_seed),
      network_diameter_(graph_.diameter()) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * scheduler_.c - 1);
  PRAMSIM_ASSERT_MSG(map_->num_modules() == scheduler_.n_processors,
                     "HB's BDN has one module per node");
  PRAMSIM_ASSERT_MSG(graph_.connected(), "expander must be connected");
}

majority::EngineResult HbExpanderEngine::run_step(
    std::span<const majority::VarRequest> requests) {
  const auto schedule = majority::schedule_step(*map_, requests, scheduler_);
  majority::EngineResult result;
  majority::copy_schedule(schedule, result);
  result.time = schedule.rounds * network_diameter_;
  return result;
}

}  // namespace pramsim::core
