// pramlint fixture: a storage organization overriding step() — the
// duplicate entry serve(plan, ctx) replaced. Both declarator shapes fire:
// a bare declaration and an inline body split over lines.
// expect: serve-entry, serve-entry
#pragma once

#include "pram/memory_system.hpp"

namespace pramsim::ida {

class SecondEntry final : public pram::MemorySystem {
 public:
  pram::MemStepCost step(std::span<const VarId> reads,
                         std::span<pram::Word> read_values,
                         std::span<const pram::VarWrite> writes) override;
};

class InlineSecondEntry final : public pram::MemorySystem {
 public:
  pram::MemStepCost step(std::span<const VarId> reads,
                         std::span<pram::Word> values,
                         std::span<const pram::VarWrite> writes)
      override {
    return {};
  }
};

}  // namespace pramsim::ida
