// AccessEngine: the cost/scheduling half of a replicated-memory scheme.
//
// Given one P-RAM step's distinct-variable requests, an engine decides
// which >= c copies of each variable get accessed and how much simulated
// time that took on its machine model:
//
//   * DmmpcEngine (here)          - protocol rounds on the DMMPC
//                                   (complete bipartite, Theorem 2);
//   * core::MotEngine             - network cycles on a 2DMOT (Theorem 3,
//                                   the LPP baseline, and the crossbar).
//
// MajorityMemory combines any engine with the timestamped CopyStore to
// form a full pram::MemorySystem.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"

namespace pramsim::majority {

/// Per-step protocol telemetry common to all engines.
struct ProtocolStats {
  std::uint64_t phases = 0;
  std::uint64_t stage1_phases = 0;
  std::uint64_t stage2_phases = 0;
  std::uint64_t live_after_stage1 = 0;
  std::uint64_t max_queue = 0;  ///< peak per-module / per-edge contention
  /// Live-variable count after each round/phase (the decay curve whose
  /// geometric shape is the Upfal-Wigderson progress lemma in action).
  std::vector<std::uint64_t> live_per_phase;
};

struct EngineResult {
  std::uint64_t time = 0;  ///< rounds (DMMPC) or network cycles (DMBDN)
  std::uint64_t work = 0;  ///< copy accesses performed
  std::vector<std::uint64_t> accessed_mask;  ///< per request, >= c bits set
  ProtocolStats stats;
};

/// Copy a schedule's counters into an engine result, reusing `out`'s
/// buffers. Time is the round count; engines that charge a network cost
/// per round rescale it.
void copy_schedule(const ScheduleResult& schedule, EngineResult& out);

class AccessEngine {
 public:
  virtual ~AccessEngine() = default;
  AccessEngine() = default;
  AccessEngine(const AccessEngine&) = delete;
  AccessEngine& operator=(const AccessEngine&) = delete;

  /// Requests must hold distinct variables.
  [[nodiscard]] virtual EngineResult run_step(
      std::span<const VarRequest> requests) = 0;

  /// In-place variant for the hot serve path: reuses `out`'s buffers
  /// across steps (same results as run_step). Engines with per-instance
  /// scratch override this; the default copies through run_step().
  virtual void run_step_into(std::span<const VarRequest> requests,
                             EngineResult& out) {
    out = run_step(requests);
  }

  [[nodiscard]] virtual const memmap::MemoryMap& map() const = 0;

  /// Simulating processors driving the protocol (cluster assignment of
  /// requests whose requester is synthesized, e.g. by MajorityMemory).
  [[nodiscard]] virtual std::uint32_t n_processors() const { return 1; }
};

/// Theorem 2 engine: the two-stage cluster protocol under unit module
/// bandwidth, zero-latency interconnect (complete bipartite K_{n,M}).
class DmmpcEngine final : public AccessEngine {
 public:
  DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
              SchedulerConfig config);

  /// The step() path: schedule_step's ascending-module resolution.
  [[nodiscard]] EngineResult run_step(
      std::span<const VarRequest> requests) override;

  /// The serve path: the first-claim DMMPC round over per-instance
  /// scratch, allocation-free after warm-up.
  void run_step_into(std::span<const VarRequest> requests,
                     EngineResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return config_.n_processors;
  }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

 private:
  std::shared_ptr<const memmap::MemoryMap> map_;
  SchedulerConfig config_;
  ClusterProtocol protocol_;
  FirstClaimRound round_;
  ScheduleResult schedule_;
};

}  // namespace pramsim::majority
