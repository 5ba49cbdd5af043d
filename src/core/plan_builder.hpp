// The plan builder lives in pram/plan_builder.hpp, beside the AccessPlan
// it builds. This alias header remains only because
// benchmark/pramsim_bench.cpp includes it; new code includes
// pram/plan_builder.hpp.
#pragma once

#include "pram/plan_builder.hpp"

namespace pramsim::core {

using PlanBuilder = pram::PlanBuilder;

}  // namespace pramsim::core
