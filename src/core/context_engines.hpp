// RanadeButterflyEngine — Ranade (1987): probabilistic emulation on a
// butterfly with one hashed copy per variable (r = 1), built on a real
// butterfly with measured (not quoted) structural costs. Each step's
// requests route along their bit-fixing paths; the engine charges
// dilation + congestion - 1 network cycles, the delay pipelined queueing
// with combining achieves up to constants. Expected time is O(log n);
// there is NO worst-case guarantee (a known-hash adversary congests one
// output row), which is the contrast the paper draws with its
// deterministic schemes.
//
// The paper's other §1 BDN baselines (Alt et al.'s sorting network,
// Herley-Bilardi's expander) run the DMMPC protocol rounds and charge
// each a network cost: they are majority::DmmpcEngine with the per-round
// charge core::make_scheme computes.
//
// Schedule semantics: r = 1, so accessed_mask is always 1 (bit 0) and a
// nonempty step is one round; MajorityMemory accepts it (r = 1, c = 1
// is a valid 2c-1 map).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "majority/engine.hpp"
#include "memmap/memory_map.hpp"
#include "network/butterfly.hpp"

namespace pramsim::core {

class RanadeButterflyEngine final : public majority::AccessEngine {
 public:
  /// `map` must have redundancy 1 and module count == butterfly rows.
  RanadeButterflyEngine(std::shared_ptr<const memmap::MemoryMap> map,
                        std::uint32_t n_processors);

  void run_step_into(std::span<const majority::VarRequest> requests,
                     majority::ScheduleResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return n_processors_;
  }

 private:
  std::shared_ptr<const memmap::MemoryMap> map_;
  std::uint32_t n_processors_;
  net::ButterflyShape shape_;
  /// The requests' variables, the batch placement's keys.
  std::vector<VarId> vars_;
  /// (source row, target module) per request, reused across steps.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

}  // namespace pramsim::core
