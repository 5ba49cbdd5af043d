#include "core/context_engines.hpp"

#include <cmath>
#include <utility>

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

void RanadeButterflyEngine::run_step_into(
    std::span<const majority::VarRequest> requests,
    majority::EngineResult& out) {
  out.time = 0;
  out.work = requests.size();
  out.stats = {};
  out.accessed_mask.assign(requests.size(), 1);  // the single copy
  if (requests.empty()) {
    return;
  }
  pairs_.clear();
  ModuleId copy[1];
  for (const auto& req : requests) {
    map_->copies_into(req.var, copy);
    // Source: the requester's input row (processors spread over rows).
    const std::uint32_t src =
        req.requester.value() % shape_.rows;
    pairs_.emplace_back(src, copy[0].value());
  }
  const auto load = net::route_congestion(shape_, pairs_);
  // Pipelined store-and-forward with combining: dilation + congestion - 1
  // cycles for the batch, doubled for the reply sweep.
  out.time = 2ULL * (load.dilation + load.max_congestion - 1);
  out.stats.phases = 1;
  out.stats.max_queue = load.max_congestion;
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
    : rounds_(std::move(map), scheduler),
      graph_(scheduler.n_processors, graph_degree, graph_seed),
      network_diameter_(graph_.diameter()) {
  PRAMSIM_ASSERT_MSG(rounds_.map().num_modules() == scheduler.n_processors,
                     "HB's BDN has one module per node");
  PRAMSIM_ASSERT_MSG(graph_.connected(), "expander must be connected");
}

void HbExpanderEngine::run_step_into(
    std::span<const majority::VarRequest> requests,
    majority::EngineResult& out) {
  rounds_.run_step_into(requests, out);
  out.time *= network_diameter_;
}

}  // namespace pramsim::core
