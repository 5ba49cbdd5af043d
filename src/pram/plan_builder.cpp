#include "pram/plan_builder.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pramsim::pram {

namespace {
constexpr std::uint32_t kNone = AccessPlan::kNone;
}  // namespace

void PlanGrouper::group(AccessPlan& plan, const MemorySystem& memory) {
  plan.group_keys = {};
  plan.group_offsets = {};
  plan.group_requests = {};
  plan.request_group = {};
  if (!memory.wants_plan_groups()) {
    return;
  }
  arena_.reset();
  const auto n_requests = static_cast<std::uint32_t>(plan.requests.size());
  sort_scratch_.clear();
  for (std::uint32_t j = 0; j < n_requests; ++j) {
    sort_scratch_.emplace_back(memory.plan_group_of(plan.requests[j].var), j);
  }
  // Pair order = (key, request index): a stable grouping without
  // stable_sort's temp buffer.
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  auto group_requests = arena_.alloc<std::uint32_t>(n_requests);
  auto request_group = arena_.alloc<std::uint32_t>(n_requests);
  auto group_keys = arena_.alloc<std::uint64_t>(n_requests);
  auto group_offsets = arena_.alloc<std::uint32_t>(n_requests + 1);
  std::uint32_t g = 0;
  for (std::uint32_t i = 0; i < n_requests; ++i) {
    const auto [key, req] = sort_scratch_[i];
    if (i == 0 || key != sort_scratch_[i - 1].first) {
      group_keys[g] = key;
      group_offsets[g] = i;
      ++g;
    }
    group_requests[i] = req;
    request_group[req] = g - 1;
  }
  group_offsets[g] = n_requests;
  plan.group_keys = group_keys.first(g);
  plan.group_offsets = group_offsets.first(g + 1);
  plan.group_requests = group_requests;
  plan.request_group = request_group;
}

const AccessPlan& PlanBuilder::build(const AccessBatch& batch,
                                     const MemorySystem& memory) {
  arena_.reset();
  index_.clear();
  index_.reserve(batch.size());
  writer_.clear();

  // Upper bound every array by the batch size, then shrink the spans to
  // the combined counts; the arena recycles the slack next build.
  const std::size_t cap = batch.size();
  auto reads = arena_.alloc<VarId>(cap);
  auto writes = arena_.alloc<VarWrite>(cap);
  auto requests = arena_.alloc<PlanRequest>(cap);
  auto read_request = arena_.alloc<std::uint32_t>(cap);
  auto write_request = arena_.alloc<std::uint32_t>(cap);
  auto request_write = arena_.alloc<std::uint32_t>(cap);

  std::uint32_t n_reads = 0;
  std::uint32_t n_writes = 0;
  std::uint32_t n_requests = 0;

  // Pass 1 — reads: the request list leads with every read variable in
  // first-appearance order.
  for (const auto& access : batch) {
    if (access.op != AccessOp::kRead) {
      continue;
    }
    const auto [slot, fresh] = index_.try_emplace(access.var.value(),
                                                  n_requests);
    (void)slot;
    if (fresh) {
      requests[n_requests] = {access.var, AccessOp::kRead, true};
      request_write[n_requests] = kNone;
      reads[n_reads] = access.var;
      read_request[n_reads] = n_requests;
      ++n_reads;
      ++n_requests;
    }
  }

  // Pass 2 — writes: CW resolution (lowest processor id wins); write-only
  // variables extend the request list in write first-appearance order.
  for (const auto& access : batch) {
    if (access.op != AccessOp::kWrite) {
      continue;
    }
    const auto [slot, fresh] = index_.try_emplace(access.var.value(),
                                                  n_requests);
    const std::uint32_t req = *slot;
    if (fresh) {
      requests[n_requests] = {access.var, AccessOp::kWrite, false};
      request_write[n_requests] = kNone;
      ++n_requests;
    }
    if (requests[req].op != AccessOp::kWrite) {
      requests[req].op = AccessOp::kWrite;
    }
    if (request_write[req] == kNone) {
      writes[n_writes] = {access.var, access.value};
      write_request[n_writes] = req;
      request_write[req] = n_writes;
      writer_.push_back(access.proc);
      ++n_writes;
    } else {
      const std::uint32_t w = request_write[req];
      if (access.proc.value() < writer_[w].value()) {
        writes[w].value = access.value;
        writer_[w] = access.proc;
      }
    }
  }

  plan_.reads = reads.first(n_reads);
  plan_.writes = writes.first(n_writes);
  plan_.requests = requests.first(n_requests);
  plan_.read_request = read_request.first(n_reads);
  plan_.write_request = write_request.first(n_writes);
  plan_.request_write = request_write.first(n_requests);
  grouper_.group(plan_, memory);
  return plan_;
}

const AccessPlan& PlanBuilder::build(std::span<const VarId> reads,
                                     std::span<const VarWrite> writes,
                                     const MemorySystem& memory) {
  arena_.reset();
  index_.clear();
  index_.reserve(reads.size() + writes.size());

  const std::size_t cap = reads.size() + writes.size();
  auto plan_reads = arena_.alloc<VarId>(reads.size());
  auto plan_writes = arena_.alloc<VarWrite>(writes.size());
  auto requests = arena_.alloc<PlanRequest>(cap);
  auto read_request = arena_.alloc<std::uint32_t>(reads.size());
  auto write_request = arena_.alloc<std::uint32_t>(writes.size());
  auto request_write = arena_.alloc<std::uint32_t>(cap);
  std::copy(reads.begin(), reads.end(), plan_reads.begin());
  std::copy(writes.begin(), writes.end(), plan_writes.begin());

  std::uint32_t n_requests = 0;
  for (const VarId var : reads) {
    const auto [slot, fresh] = index_.try_emplace(var.value(), n_requests);
    (void)slot;
    PRAMSIM_DASSERT(fresh);
    requests[n_requests] = {var, AccessOp::kRead, true};
    request_write[n_requests] = kNone;
    read_request[n_requests] = n_requests;
    ++n_requests;
  }
  for (std::uint32_t i = 0; i < writes.size(); ++i) {
    const auto [slot, fresh] = index_.try_emplace(writes[i].var.value(),
                                                  n_requests);
    if (fresh) {
      requests[n_requests] = {writes[i].var, AccessOp::kWrite, false};
      ++n_requests;
    }
    const std::uint32_t req = *slot;
    PRAMSIM_DASSERT(fresh || request_write[req] == kNone);
    requests[req].op = AccessOp::kWrite;
    write_request[i] = req;
    request_write[req] = i;
  }

  plan_.reads = plan_reads;
  plan_.writes = plan_writes;
  plan_.requests = requests.first(n_requests);
  plan_.read_request = read_request;
  plan_.write_request = write_request;
  plan_.request_write = request_write.first(n_requests);
  grouper_.group(plan_, memory);
  return plan_;
}

}  // namespace pramsim::pram
