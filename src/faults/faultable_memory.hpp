// FaultableMemory: degrade a pram::MemorySystem under a seeded
// FaultModel (static or dynamic-onset) and verify every surviving read
// against a trace-consistency oracle — the adversity harness the paper's
// redundancy claims are scored on.
//
// Faults enter at one granularity only: the wrapper installs the model
// as the inner memory's pram::FaultHooks, and the inner scheme applies
// them to its own copies, shares or cells — majority voting really sees
// divergent copies, IDA really interpolates around missing shares, a
// single-copy scheme really loses a dead module's range. Every
// SchemeKind core::make_memory builds accepts the hooks, bare or behind
// a cache, and the constructor aborts on a memory that does not. The
// wrapper itself adds two things: the oracle pass that counts silent
// wrong reads, and the journal of fault onsets.
//
// reliability() is the inner scheme's telemetry plus the oracle's
// mismatch count as wrong_reads, so callers read one struct.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_model.hpp"
#include "faults/trace_checker.hpp"
#include "pram/memory_system.hpp"

namespace pramsim::faults {

class FaultableMemory final : public pram::MemorySystem {
 public:
  /// Wrap `inner` and install the model as its fault hooks; aborts when
  /// `inner` does not accept them.
  FaultableMemory(std::unique_ptr<pram::MemorySystem> inner, FaultSpec spec);

  /// Forward the plan to the inner scheme's own serve (which applies the
  /// hooks at copy/share granularity — including a group-parallel
  /// backend fanning request ranges across ctx's executor), then run the
  /// oracle pass, reading outage flags from the context.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// The plan reaches the inner scheme verbatim, so grouping and
  /// capabilities are the inner scheme's.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return inner_->plan_group_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return inner_->wants_plan_groups();
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return inner_->capabilities();
  }
  pram::ServeBackend set_serve_backend(
      pram::ServeBackend backend) override {
    return inner_->set_serve_backend(backend);
  }

  [[nodiscard]] std::uint64_t size() const override {
    return inner_->size();
  }
  /// The inner scheme's fault-aware peek: peek-based verifiers observe
  /// what the degraded runtime reads observe.
  [[nodiscard]] pram::Word peek(VarId var) const override {
    return inner_->peek(var);
  }
  /// Records the value as the oracle's ideal, then pokes the inner
  /// scheme, whose stores are subject to the same faults as any other.
  void poke(VarId var, pram::Word value) override {
    checker_.record_write(var, value);
    inner_->poke(var, value);
  }

  // The widened engine surface passes through to the wrapped scheme, so
  // a FaultableMemory drops into pram::Machine and the pipeline exactly
  // where the bare scheme did.
  [[nodiscard]] double storage_redundancy() const override {
    return inner_->storage_redundancy();
  }
  [[nodiscard]] const memmap::MemoryMap* memory_map() const override {
    return inner_->memory_map();
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return inner_->num_modules();
  }
  [[nodiscard]] std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override {
    return inner_->adversarial_vars(count, seed);
  }
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    pram::ReliabilityStats stats = inner_->reliability();
    stats.wrong_reads += checker_.mismatches();
    return stats;
  }

  /// One sink observes both layers: the wrapper's oracle/onset events
  /// and the inner scheme's vote/decode/scrub events land in the same
  /// journal (the step-stamp orders them).
  void set_observer(obs::Sink* sink) override {
    pram::MemorySystem::set_observer(sink);
    inner_->set_observer(sink);
  }
  /// Background repair is the inner scheme's: it relocates and rebuilds
  /// at its own copy/share granularity (single-copy schemes have
  /// nothing to rebuild from, so their pass is a no-op).
  pram::ScrubResult scrub(std::uint64_t budget) override {
    return inner_->scrub(budget);
  }

  [[nodiscard]] const FaultModel& model() const { return model_; }
  [[nodiscard]] const TraceChecker& checker() const { return checker_; }

 protected:
  /// Snapshot: the inner scheme's full nested frame, then the oracle's
  /// committed-write image (ascending), so a recovered wrapper keeps
  /// catching silent wrong reads against the SAME ideal replica — a
  /// crash must not reset the consistency contract. The fault model
  /// itself is seed-derived (rebuilt by construction) and the onset
  /// journal cursor restarts, so a sink attached after restore re-sees
  /// every onset the restored clock has crossed.
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  /// Journal every fault onset the step clock has crossed (kFaultOnset,
  /// once per dead module). The cursor over model_.onsets() only
  /// advances while a sink is attached, so a sink attached mid-run still
  /// sees every onset.
  void emit_onsets(std::uint64_t step);

  std::unique_ptr<pram::MemorySystem> inner_;
  FaultModel model_;
  TraceChecker checker_;
  std::size_t onset_cursor_ = 0;
};

}  // namespace pramsim::faults
