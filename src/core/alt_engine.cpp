#include "core/alt_engine.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

AltBdnEngine::AltBdnEngine(std::shared_ptr<const memmap::MemoryMap> map,
                           majority::SchedulerConfig scheduler)
    : rounds_(std::move(map), scheduler),
      network_(sortnet::batcher_sort(
          util::is_pow2(scheduler.n_processors)
              ? scheduler.n_processors
              : static_cast<std::uint32_t>(
                    util::next_pow2(scheduler.n_processors)))) {
  PRAMSIM_ASSERT_MSG(rounds_.map().num_modules() == scheduler.n_processors,
                     "the BDN hosts one module per processor node");
  const auto log_n = static_cast<std::uint64_t>(
      scheduler.n_processors > 1 ? util::ilog2_ceil(scheduler.n_processors)
                                 : 1);
  cycles_per_round_ = network_.depth() + 2 * log_n;
}

void AltBdnEngine::run_step_into(
    std::span<const majority::VarRequest> requests,
    majority::EngineResult& out) {
  rounds_.run_step_into(requests, out);
  out.time *= cycles_per_round_;
}

}  // namespace pramsim::core
