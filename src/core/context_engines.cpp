#include "core/context_engines.hpp"

#include <utility>

#include "util/assert.hpp"

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
    majority::ScheduleResult& out) {
  out.clear();
  if (requests.empty()) {
    return;
  }
  out.work = requests.size();
  out.accessed_mask.assign(requests.size(), 1);  // the single copy
  vars_.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    vars_[i] = requests[i].var;
  }
  out.copies.resize(requests.size());
  map_->copies_batch(vars_, out.copies);
  pairs_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Source: the requester's input row (processors spread over rows).
    const std::uint32_t src = requests[i].requester.value() % shape_.rows;
    pairs_.emplace_back(src, out.copies[i].value());
  }
  const auto load = net::route_congestion(shape_, pairs_);
  // Pipelined store-and-forward with combining: dilation + congestion - 1
  // cycles for the batch, doubled for the reply sweep.
  out.time = 2ULL * (load.dilation + load.max_congestion - 1);
  out.rounds = 1;
  out.max_queue = load.max_congestion;
}

}  // namespace pramsim::core
