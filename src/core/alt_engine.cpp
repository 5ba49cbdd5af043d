#include "core/alt_engine.hpp"

#include <utility>

#include "majority/scheduler.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

AltBdnEngine::AltBdnEngine(std::shared_ptr<const memmap::MemoryMap> map,
                           majority::SchedulerConfig scheduler)
    : map_(std::move(map)),
      scheduler_(scheduler),
      network_(sortnet::batcher_sort(
          util::is_pow2(scheduler.n_processors)
              ? scheduler.n_processors
              : static_cast<std::uint32_t>(
                    util::next_pow2(scheduler.n_processors)))) {
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * scheduler_.c - 1);
  PRAMSIM_ASSERT_MSG(map_->num_modules() == scheduler_.n_processors,
                     "the BDN hosts one module per processor node");
  const auto log_n = static_cast<std::uint64_t>(
      scheduler_.n_processors > 1
          ? util::ilog2_ceil(scheduler_.n_processors)
          : 1);
  cycles_per_round_ = network_.depth() + 2 * log_n;
}

majority::EngineResult AltBdnEngine::run_step(
    std::span<const majority::VarRequest> requests) {
  const auto schedule =
      majority::schedule_step(*map_, requests, scheduler_);
  majority::EngineResult result;
  majority::copy_schedule(schedule, result);
  result.time = schedule.rounds * cycles_per_round_;
  return result;
}

}  // namespace pramsim::core
