#include "pram/memory_system.hpp"

#include "pram/plan_builder.hpp"
#include "util/assert.hpp"

namespace pramsim::pram {

namespace {
// Snapshot frame constants ("PSNP"): shared by every MemorySystem; the
// checkpoint FILE frame (magic, length, CRC) lives in src/durability.
constexpr std::uint32_t kSnapshotMagic = 0x50534E50u;
constexpr std::uint32_t kSnapshotVersion = 1;
}  // namespace

struct MemorySystem::StepAdapter {
  PlanBuilder builder;
  ServeContext ctx;
};

MemorySystem::MemorySystem() = default;
MemorySystem::~MemorySystem() = default;

MemStepCost MemorySystem::step(std::span<const VarId> reads,
                               std::span<Word> read_values,
                               std::span<const VarWrite> writes) {
  PRAMSIM_ASSERT(reads.size() == read_values.size());
  if (step_adapter_ == nullptr) {
    step_adapter_ = std::make_unique<StepAdapter>();
  }
  StepAdapter& adapter = *step_adapter_;
  adapter.ctx.bind(read_values);
  return serve(adapter.builder.build(reads, writes, *this), adapter.ctx);
}

std::span<const std::uint8_t> MemorySystem::flagged_reads() const {
  if (step_adapter_ == nullptr) {
    return {};
  }
  return step_adapter_->ctx.flags();
}

void MemorySystem::snapshot(SnapshotSink& sink) {
  put_u32(sink, kSnapshotMagic);
  put_u32(sink, kSnapshotVersion);
  put_u64(sink, steps_served());
  put_u64(sink, size());
  snapshot_body(sink);
}

bool MemorySystem::restore(SnapshotSource& source) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t clock = 0;
  std::uint64_t m = 0;
  if (!get_u32(source, magic) || magic != kSnapshotMagic ||
      !get_u32(source, version) || version != kSnapshotVersion ||
      !get_u64(source, clock) || !get_u64(source, m) || m != size()) {
    return false;
  }
  // Clock first: restore_body pokes stamp at the restored step clock, so
  // replayed values are never "older" than pre-crash commits they equal.
  step_clock_ = clock;
  return restore_body(source);
}

void MemorySystem::snapshot_body(SnapshotSink& sink) {
  const std::uint64_t m = size();
  std::uint64_t nonzero = 0;
  for (std::uint64_t v = 0; v < m; ++v) {
    if (peek(VarId(static_cast<std::uint32_t>(v))) != 0) {
      ++nonzero;
    }
  }
  put_u64(sink, nonzero);
  for (std::uint64_t v = 0; v < m; ++v) {
    const Word value = peek(VarId(static_cast<std::uint32_t>(v)));
    if (value != 0) {
      put_u64(sink, v);
      put_word(sink, value);
    }
  }
}

bool MemorySystem::restore_body(SnapshotSource& source) {
  // Pairs arrive with strictly ascending variables, as snapshot_body
  // writes them; a repeated or descending variable is a forged frame.
  const std::uint64_t m = size();
  std::uint64_t count = 0;
  if (!get_u64(source, count) || count > m) {
    return false;
  }
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t var = 0;
    Word value = 0;
    if (!get_ascending_key(source, next, m, var) ||
        !get_word(source, value)) {
      return false;
    }
    poke(VarId(static_cast<std::uint32_t>(var)), value);
  }
  return true;
}

const char* to_string(ServeBackend backend) {
  switch (backend) {
    case ServeBackend::kSerial: return "serial";
    case ServeBackend::kGroupParallel: return "group-parallel";
  }
  return "???";
}

FlatMemory::FlatMemory(std::uint64_t m_cells) : cells_(m_cells, 0) {}

MemStepCost FlatMemory::serve(const AccessPlan& plan, ServeContext& ctx) {
  const MemStepCost cost = step(plan.reads, ctx.read_values(), plan.writes);
  ctx.stamp_step(steps_served());
  return cost;
}

MemStepCost FlatMemory::step(std::span<const VarId> reads,
                             std::span<Word> read_values,
                             std::span<const VarWrite> writes) {
  PRAMSIM_ASSERT(reads.size() == read_values.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    PRAMSIM_ASSERT(reads[i].index() < cells_.size());
    read_values[i] = cells_[reads[i].index()];
  }
  for (const auto& w : writes) {
    PRAMSIM_ASSERT(w.var.index() < cells_.size());
    cells_[w.var.index()] = w.value;
  }
  return MemStepCost{.time = 1,
                     .work = reads.size() + writes.size()};
}

Word FlatMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  return cells_[var.index()];
}

void FlatMemory::poke(VarId var, Word value) {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  cells_[var.index()] = value;
}

}  // namespace pramsim::pram
