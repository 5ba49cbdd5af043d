// AltBdnEngine: the Alt-Hagerup-Mehlhorn-Preparata (1987) deterministic
// BDN baseline, as reviewed in the paper's §1.
//
// Their simulation realizes each round of the Upfal-Wigderson protocol on
// a bounded-degree network by SORTING the round's copy requests by
// destination module (a Batcher network of depth log n (log n + 1)/2),
// delivering along the sorted order, and returning replies the same way
// — O(log n log m) total. We model it faithfully at the round level: the
// round structure comes from the real two-stage DMMPC schedule over an
// M = n, r = Theta(log m) map (the MPC geometry the scheme assumes), and
// each round is charged the *exact* depth of the concrete Batcher
// network plus 2 log n delivery hops. The comparator network itself is
// real and tested (src/sortnet); only the per-comparator data movement is
// abstracted into the depth charge, which is the quantity their analysis
// counts.
#pragma once

#include <cstdint>
#include <memory>

#include "majority/engine.hpp"
#include "memmap/memory_map.hpp"
#include "sortnet/batcher.hpp"

namespace pramsim::core {

class AltBdnEngine final : public majority::AccessEngine {
 public:
  /// `map` must be an M = n_processors map (the BDN has one module per
  /// node), redundancy 2c-1 with scheduler.c == c.
  AltBdnEngine(std::shared_ptr<const memmap::MemoryMap> map,
               majority::SchedulerConfig scheduler);

  /// The DMMPC schedule's rounds, each charged cycles_per_round().
  void run_step_into(std::span<const majority::VarRequest> requests,
                     majority::EngineResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return rounds_.map();
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return rounds_.n_processors();
  }
  /// Cycles charged per protocol round: sort depth + delivery.
  [[nodiscard]] std::uint64_t cycles_per_round() const {
    return cycles_per_round_;
  }
  [[nodiscard]] const sortnet::ComparatorNetwork& network() const {
    return network_;
  }

 private:
  majority::DmmpcEngine rounds_;  ///< the protocol's round structure
  sortnet::ComparatorNetwork network_;
  std::uint64_t cycles_per_round_ = 1;
};

}  // namespace pramsim::core
