// AccessEngine: the cost/scheduling half of a replicated-memory scheme.
//
// Given one P-RAM step's distinct-variable requests, an engine decides
// which >= c copies of each variable get accessed and how much simulated
// time that took on its machine model. There is one engine per round
// model:
//
//   * DmmpcEngine (here)            - DMMPC rounds, each charged a fixed
//                                     cycle count (Theorem 2's DMMPC, the
//                                     UW'87 MPC, and the Alt et al. and
//                                     Herley-Bilardi BDN baselines);
//   * core::MotEngine               - routed phases on a 2DMOT (Theorem
//                                     3, the LPP baseline, the crossbar);
//   * core::RanadeButterflyEngine   - one hashed copy routed across a
//                                     butterfly (Ranade's baseline).
//
// Every engine reports a step as one ScheduleResult (majority/scheduler
// .hpp). MajorityMemory combines any engine with the timestamped
// CopyStore to form a full pram::MemorySystem. run_step_into is an
// engine's one schedule entry: it reuses the result's buffers and the
// engine's own scratch across steps; run_step is its by-value form for
// tests and benches.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"

namespace pramsim::majority {

class AccessEngine {
 public:
  virtual ~AccessEngine() = default;
  AccessEngine() = default;
  AccessEngine(const AccessEngine&) = delete;
  AccessEngine& operator=(const AccessEngine&) = delete;

  /// Schedule one step's requests (distinct variables) into `out`,
  /// reusing its buffers across steps.
  virtual void run_step_into(std::span<const VarRequest> requests,
                             ScheduleResult& out) = 0;

  /// By-value form of run_step_into.
  [[nodiscard]] ScheduleResult run_step(
      std::span<const VarRequest> requests) {
    ScheduleResult out;
    run_step_into(requests, out);
    return out;
  }

  [[nodiscard]] virtual const memmap::MemoryMap& map() const = 0;

  /// Simulating processors driving the protocol (cluster assignment of
  /// requests whose requester is synthesized, e.g. by MajorityMemory).
  [[nodiscard]] virtual std::uint32_t n_processors() const { return 1; }
};

/// The two-stage cluster protocol with FirstClaimRound as its round:
/// unit module bandwidth, every round charged `round_cycles`. On the
/// DMMPC (complete bipartite K_{n,M}, Theorem 2) and the MPC a round
/// costs 1, so time is the round count; core::make_scheme computes the
/// BDN baselines' per-round network charges.
class DmmpcEngine final : public AccessEngine {
 public:
  DmmpcEngine(std::shared_ptr<const memmap::MemoryMap> map,
              SchedulerConfig config, std::uint64_t round_cycles = 1);

  /// The first-claim DMMPC round over per-instance scratch,
  /// allocation-free after warm-up.
  void run_step_into(std::span<const VarRequest> requests,
                     ScheduleResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return config_.n_processors;
  }

 private:
  std::shared_ptr<const memmap::MemoryMap> map_;
  SchedulerConfig config_;
  std::uint64_t round_cycles_;
  ClusterProtocol protocol_;
  FirstClaimRound round_;
};

}  // namespace pramsim::majority
