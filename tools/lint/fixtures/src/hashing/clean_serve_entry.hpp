// pramlint fixture: the one entry implemented, step() only called, and
// look-alikes the rule must not confuse with an override: other
// functions ending in "step", a call followed by an override elsewhere
// on the line, and `step(...) override` inside this comment.
// expect: none
#pragma once

#include "pram/memory_system.hpp"

namespace pramsim::hashing {

class OneEntry final : public pram::MemorySystem {
 public:
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;
  void run_step(std::uint64_t budget) override;
  std::uint64_t size() const override { return inner_->step({}, {}, {}).time; }
  const char* name() const override { return "step() override"; }

 private:
  pram::MemorySystem* inner_ = nullptr;
};

}  // namespace pramsim::hashing
