// AccessPlan: one P-RAM step, combined once for the serve path.
//
// Every memory organization serves a step through serve(plan, ctx), and
// the plan is the per-step bookkeeping each of them needs — the distinct
// variable union and the pairing of reads and writes with their
// requests — computed ONCE, by pram::PlanBuilder for every caller
// (pram::Machine included), stored SoA in a reusable arena, and shared
// by every layer that serves the step: schemes read precomputed index
// arrays instead of rebuilding hash tables.
//
// One request per distinct variable is what lets a scheme split its
// value phase into request ranges that touch disjoint storage. A plan
// additionally carries groups only for a target whose serve unit is
// larger than a variable (IdaMemory: one group per block, sharing one
// decode); see MemorySystem::wants_plan_groups.
//
// Lifetime: every span aliases the owning builder's storage and is valid
// until that builder's next build(). Plans are immutable once built, so a
// generator thread can build plan N+1 while a worker serves plan N (the
// overlapped step loop in core::SimulationPipeline).
#pragma once

#include <cstdint>
#include <span>

#include "pram/types.hpp"

namespace pramsim::pram {

/// One distinct variable's combined access for the step. `op` follows the
/// write-wins convention (kWrite when any processor writes the variable);
/// `is_read` is true when any processor also reads it, so schemes that
/// need the full read/write split (e.g. IDA block staging) don't lose the
/// read under a concurrent write.
struct PlanRequest {
  VarId var;
  AccessOp op = AccessOp::kRead;
  bool is_read = false;
};

/// The combined step: distinct reads and distinct CW-resolved writes
/// (the lists MemorySystem::step takes), plus the precomputed joins.
struct AccessPlan {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Distinct read variables (first-appearance order for batches).
  std::span<const VarId> reads;
  /// Distinct writes with their winning (lowest-writer-id) values.
  std::span<const VarWrite> writes;

  /// The variable union: every read variable (in reads order) followed by
  /// the write-only variables (in writes order) — the request list the
  /// majority protocols serve, precomputed so schemes skip their per-step
  /// dedup tables.
  std::span<const PlanRequest> requests;
  /// read_request[i] = index into requests serving reads[i].
  std::span<const std::uint32_t> read_request;
  /// write_request[i] = index into requests committing writes[i].
  std::span<const std::uint32_t> write_request;
  /// request_write[j] = index into writes for request j, or kNone when
  /// the request is read-only (the inverse join of write_request).
  std::span<const std::uint32_t> request_write;

  // ----- target grouping (populated iff the target memory opted in via
  // MemorySystem::wants_plan_groups, empty plans included) -----
  //
  // Requests bucketed by MemorySystem::plan_group_of (the IDA block),
  // CSR layout: group g spans
  //   group_requests[group_offsets[g] .. group_offsets[g+1])
  // with keys ascending in group_keys[g]; within a group, requests keep
  // their plan order.
  std::span<const std::uint64_t> group_keys;
  std::span<const std::uint32_t> group_offsets;
  std::span<const std::uint32_t> group_requests;
  /// request_group[j] = index of the group containing request j (kNone
  /// when grouping was skipped).
  std::span<const std::uint32_t> request_group;

  [[nodiscard]] std::size_t num_groups() const { return group_keys.size(); }
  [[nodiscard]] bool grouped() const { return !group_offsets.empty(); }
};

}  // namespace pramsim::pram
