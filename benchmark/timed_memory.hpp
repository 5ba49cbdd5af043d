// TimedMemory: a probe shim that forwards every pram::MemorySystem call
// to the memory it wraps and records a span around each serving call.
//
// The traced run places it directly above the storage scheme — under
// faults::FaultableMemory, under cache::CachedMemory, and under
// pram::Machine — so a wrapper's self time is its own serve span minus
// the shim's span, and the scheme's serve time is the shim's span. The
// untraced run never builds it.
//
// The shim keeps its own step clock (every MemorySystem does) and nests
// the wrapped memory's full snapshot frame inside its own, so checkpoints
// written through it are a few bytes longer than untraced ones; they load
// and recover the same state.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "pram/memory_system.hpp"
#include "spans.hpp"

namespace pramsim::benchmark {

class TimedMemory final : public pram::MemorySystem {
 public:
  TimedMemory(std::unique_ptr<pram::MemorySystem> inner,
              SpanRecorder& spans, const char* span_name)
      : inner_(std::move(inner)), spans_(&spans), span_name_(span_name) {}

  pram::MemStepCost step(std::span<const VarId> reads,
                         std::span<pram::Word> read_values,
                         std::span<const pram::VarWrite> writes) override {
    advance_step_clock();
    const ScopedSpan span(spans_, span_name_);
    return inner_->step(reads, read_values, writes);
  }

  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override {
    advance_step_clock();
    const ScopedSpan span(spans_, span_name_);
    return inner_->serve(plan, ctx);
  }

  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return inner_->wants_plan_groups();
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return inner_->capabilities();
  }
  pram::ServeBackend set_serve_backend(pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] pram::Word peek(VarId var) const override {
    return inner_->peek(var);
  }
  void poke(VarId var, pram::Word value) override { inner_->poke(var, value); }
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const memmap::MemoryMap* memory_map() const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    return inner_->set_fault_hooks(hooks);
  }
  pram::ScrubResult scrub(std::uint64_t budget) override {
    return inner_->scrub(budget);
  }
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return inner_->reliability();
  }
  [[nodiscard]] std::span<const std::uint8_t> flagged_reads() const override {
    return inner_->flagged_reads();
  }
  [[nodiscard]] std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  void set_observer(obs::Sink* sink) override {
    pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }

 protected:
  void snapshot_body(pram::SnapshotSink& sink) override {
    inner_->snapshot(sink);
  }
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override {
    return inner_->restore(source);
  }

 private:
  std::unique_ptr<pram::MemorySystem> inner_;
  SpanRecorder* spans_;
  const char* span_name_;
};

}  // namespace pramsim::benchmark
