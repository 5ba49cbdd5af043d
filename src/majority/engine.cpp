#include "majority/engine.hpp"

#include <utility>

#include "util/assert.hpp"

namespace pramsim::majority {

void copy_schedule(const ScheduleResult& schedule, EngineResult& out) {
  out.time = schedule.rounds;
  out.work = schedule.total_copy_accesses;
  out.accessed_mask = schedule.accessed_mask;
  out.stats.phases = schedule.rounds;
  out.stats.stage1_phases = schedule.stage1_rounds;
  out.stats.stage2_phases = schedule.stage2_rounds;
  out.stats.live_after_stage1 = schedule.live_after_stage1;
  out.stats.max_queue = schedule.max_module_queue;
  out.stats.live_per_phase = schedule.live_per_round;
}

DmmpcEngine::DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
                         SchedulerConfig config)
    : map_(std::move(map)), config_(config) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.c - 1);
}

void DmmpcEngine::run_step_into(std::span<const VarRequest> requests,
                                EngineResult& out) {
  protocol_.run(*map_, requests, config_, round_, schedule_);
  copy_schedule(schedule_, out);
}

}  // namespace pramsim::majority
