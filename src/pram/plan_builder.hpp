// PlanBuilder: combines one P-RAM step into an arena-backed AccessPlan —
// the reusable execution state of the serve path.
//
// Two entries share one arena, one dedup table and one grouping rule:
//
//   * build(batch, memory) combines a raw per-processor access batch:
//     concurrent reads collapse to one read, concurrent writes resolve to
//     the lowest processor id (the deterministic CW convention used
//     machine-wide). The driver and the benchmark build every step here.
//     It reads each access's op once: one branch-free pass splits the
//     batch into a list of read positions and a list of write positions
//     (builder scratch), and the read and write loops walk those lists.
//   * build(reads, writes, memory) takes a step that is already combined
//     (distinct reads, distinct writes) and adds the joins:
//     pram::Machine (which combines under its own conflict policy), the
//     MemorySystem::step adapter and the cache's residual step build
//     here.
//
// Grouping rule: a plan is grouped exactly when its target wants groups
// (MemorySystem::wants_plan_groups), empty plans included; only IDA's
// blocks do.
//
// The dedup table (var -> request) is a util::ScratchMap reserved for
// the whole step before its first probe. A warmed-up builder builds a
// step with zero heap allocations: its table, split lists and arena
// keep the largest size any step has needed. One builder = one plan
// slot: the emitted plan aliases the builder's arena and stays valid
// until the next build(). The driver's overlapped step loop keeps two
// builders and flips between them, letting a generator thread build
// plan N+1 while a worker serves plan N.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pram/access_plan.hpp"
#include "pram/memory_system.hpp"
#include "pram/types.hpp"
#include "util/arena.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::pram {

class PlanBuilder {
 public:
  PlanBuilder() = default;
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Combine `batch` and group it for `memory`. The returned plan aliases
  /// this builder: valid until the next build() on this builder.
  const AccessPlan& build(const AccessBatch& batch,
                          const MemorySystem& memory);

  /// Join an already-combined step: `reads` and `writes` each hold
  /// distinct variables; a variable in both lists becomes one request
  /// (op = kWrite, is_read = true). Requests are the reads in order,
  /// then the write-only variables in write order. Both lists are
  /// copied, so the plan does not alias the caller's spans.
  const AccessPlan& build(std::span<const VarId> reads,
                          std::span<const VarWrite> writes,
                          const MemorySystem& memory);

  /// Most recently built plan.
  [[nodiscard]] const AccessPlan& plan() const { return plan_; }

 private:
  /// Set plan_'s group arrays for `memory`: requests bucketed by the
  /// target's plan_group_of keys (CSR, keys ascending, plan order within
  /// a group) exactly when memory.wants_plan_groups(), empty plans
  /// included (one offset, no groups); cleared otherwise.
  void group(const MemorySystem& memory);

  /// var -> request index, epoch-cleared per build.
  util::ScratchMap<std::uint32_t, std::uint32_t> index_;
  /// build(batch)'s split: the batch positions of its reads and of its
  /// writes, each in batch order (kept at the largest batch size seen).
  std::vector<std::uint32_t> read_pos_;
  std::vector<std::uint32_t> write_pos_;
  /// Winning writer per write row (CW resolution scratch).
  std::vector<ProcId> writer_;
  /// (group key, request index) pairs, sorted to derive the CSR groups.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sort_scratch_;
  util::Arena arena_;
  AccessPlan plan_;
};

}  // namespace pramsim::pram
