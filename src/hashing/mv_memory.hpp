// MvMemory: the Mehlhorn-Vishkin probabilistic baseline — one copy per
// variable, placed by a universal hash over M modules. Per-step time is
// the maximum number of distinct requested variables hashing to one
// module (each module serves one request per round). No worst-case
// guarantee: an adversary who knows the hash can force n rounds, which is
// exactly the contrast with the paper's deterministic scheme.
//
// An optional rehash policy re-draws the hash function (and conceptually
// migrates memory) whenever a step exceeds a load threshold; the count of
// rehashes is reported so benches can show the hidden cost.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hashing/universal.hpp"
#include "pram/memory_system.hpp"
#include "util/stats.hpp"

namespace pramsim::hashing {

struct MvMemoryConfig {
  std::uint32_t n_modules = 64;
  std::uint32_t k_wise = 2;  ///< independence of the hash family
  std::uint64_t seed = 1;
  /// Rehash when a step's max module load exceeds this (0 = never).
  std::uint32_t rehash_threshold = 0;
};

class MvMemory final : public pram::MemorySystem {
 public:
  MvMemory(std::uint64_t m_vars, MvMemoryConfig config);

  /// The plan's request list is the distinct variable union, so module
  /// loads accumulate into a dense per-instance scratch array. Reads of
  /// a dead module are flagged in `ctx`. Under
  /// ServeBackend::kGroupParallel the plan's groups ARE the
  /// touched modules (plan_group_of = module_of), so a group's load is
  /// its size and the value loops fan across ctx.executor()'s workers
  /// with per-chunk telemetry folded in chunk order.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// Group key = the copy's module. ONLY exposed on the group-parallel
  /// backend, which requires the rehash policy off: a redrawable hash
  /// must not leak into plans built ahead of time (set_serve_backend
  /// refuses kGroupParallel when rehash_threshold != 0).
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return module_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override {
    return backend_ == pram::ServeBackend::kGroupParallel;
  }
  [[nodiscard]] std::uint32_t capabilities() const override {
    return config_.rehash_threshold == 0
               ? std::uint32_t{pram::kGroupParallel}
               : std::uint32_t{0};
  }
  pram::ServeBackend set_serve_backend(pram::ServeBackend backend) override {
    backend_ = (capabilities() & pram::kGroupParallel) != 0
                   ? backend
                   : pram::ServeBackend::kSerial;
    return backend_;
  }

  [[nodiscard]] std::uint64_t size() const override { return cells_.size(); }
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;
  [[nodiscard]] std::uint32_t num_modules() const override {
    return config_.n_modules;
  }
  /// Single-copy storage has nothing to vote with: a dead module loses
  /// its whole address range (uncorrectable), a stuck or corrupted cell
  /// is silently wrong — the unreplicated baseline's measurable
  /// disadvantage under adversity.
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    hooks_ = hooks;
    return true;
  }
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return reliability_;
  }
  /// The known-hash preimage attack: the adversary (who can read the
  /// hash function out of the machine) returns `count` distinct
  /// variables colliding on one module, forcing a serial step. This is
  /// the worst-case traffic the scheme's expected-case analysis excludes.
  [[nodiscard]] std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const override;

  [[nodiscard]] std::uint32_t module_of(VarId var) const;
  [[nodiscard]] std::uint64_t rehashes() const { return rehashes_; }
  [[nodiscard]] const util::RunningStats& load_stats() const {
    return load_stats_;
  }

 private:
  /// Per-chunk telemetry slot for the group-parallel value phase, folded
  /// in chunk order after the fan-out.
  struct ChunkTally {
    pram::ReliabilityStats stats;
    std::uint32_t max_load = 0;
  };

  /// Read the single copy under fault injection (dead module ->
  /// uncorrectable zero with *flagged set, stuck cell -> silently wrong
  /// stuck value). Stats accrue into `stats` (chunk-local under the
  /// group-parallel backend, reliability_ otherwise).
  [[nodiscard]] pram::Word faulted_read(VarId var, bool* flagged,
                                        pram::ReliabilityStats& stats);
  /// Commit a write unless the cell's module is dead; the committed word
  /// may be silently corrupted.
  void faulted_write(VarId var, pram::Word value,
                     pram::ReliabilityStats& stats);
  /// The group-parallel value phase (plan groups = modules).
  pram::MemStepCost serve_groups_parallel(const pram::AccessPlan& plan,
                                          pram::ServeContext& ctx);

  MvMemoryConfig config_;
  util::Rng rng_;
  PolynomialHash hash_;
  std::vector<pram::Word> cells_;
  pram::ServeBackend backend_ = pram::ServeBackend::kSerial;
  /// serve() scratch: per-module distinct-request counts plus the list of
  /// touched modules (for O(touched) reset), reused across steps.
  std::vector<std::uint32_t> load_scratch_;
  std::vector<std::uint32_t> touched_scratch_;
  std::vector<ChunkTally> chunk_scratch_;
  std::uint64_t rehashes_ = 0;
  util::RunningStats load_stats_;  ///< per-step max module load
  const pram::FaultHooks* hooks_ = nullptr;  ///< non-owning; null = healthy
  pram::ReliabilityStats reliability_;
};

}  // namespace pramsim::hashing
