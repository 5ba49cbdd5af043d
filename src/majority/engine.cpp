#include "majority/engine.hpp"

#include <utility>

#include "util/assert.hpp"

namespace pramsim::majority {

DmmpcEngine::DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
                         SchedulerConfig config, std::uint64_t round_cycles)
    : map_(std::move(map)), config_(config), round_cycles_(round_cycles) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.c - 1);
  PRAMSIM_ASSERT(round_cycles_ >= 1);
}

void DmmpcEngine::run_step_into(std::span<const VarRequest> requests,
                                ScheduleResult& out) {
  protocol_.run(*map_, requests, config_, round_, out);
  out.time = out.rounds * round_cycles_;
}

}  // namespace pramsim::majority
