// MotEngine: the paper's 2DMOT simulation schemes, cycle-accurate.
//
// Three placements on the mesh-of-trees substrate:
//
//  * kHpLeaves (Fig. 8, Theorem 3 — THE contribution): square S x S 2DMOT
//    with S = sqrt(M); the n processors sit at the roots of the first n
//    row trees, the M memory modules at the leaves. A request from
//    processor l for a copy in module (i,j) descends row tree l to leaf
//    (l,j), ascends column tree j to its root, descends to leaf (i,j),
//    crosses the module's unit-bandwidth port, and the reply retraces the
//    path. Constant-redundancy Lemma 2 map. O(M) switches.
//
//  * kLppRoots (Luccio-Pietracaprina-Pucci 1990 baseline): square n x n
//    2DMOT, processors at the n coalesced roots, one memory module per
//    root (M = n, the classic coarse granularity). Requests run down the
//    row tree and up the column tree to the target root. Redundancy
//    Theta(log n) (UW map).
//
//  * kCrossbar (Fig. 7): rectangular n x M 2DMOT used as a crossbar;
//    modules at the M column-tree roots. Constant redundancy, but O(nM)
//    switches — the expensive way to buy granularity.
//
// The engine drives the DMMPC scheduler's two-stage cluster protocol
// (majority::ClusterProtocol) with a routed phase as its round: each
// phase routes real packets under FIFO link arbitration and
// unit-capacity module ports; elapsed time is network cycles. A
// per-phase control overhead of ceil(log2 n) cycles accounts for the
// prefix/sorting control work the LPP machinery performs on the trees
// between phases (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "majority/engine.hpp"
#include "memmap/memory_map.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "network/topology.hpp"

namespace pramsim::core {

enum class MotScheme : std::uint8_t {
  kHpLeaves,   ///< Theorem 3: modules at leaves, constant redundancy
  kLppRoots,   ///< LPP'90: modules at roots, log redundancy
  kCrossbar,   ///< Fig. 7: n x M crossbar, constant redundancy
};

[[nodiscard]] const char* to_string(MotScheme scheme);

struct MotEngineConfig {
  MotScheme scheme = MotScheme::kHpLeaves;
  std::uint32_t n_processors = 0;
  std::uint32_t c = 2;             ///< access threshold (r = 2c-1)
  std::uint32_t cluster_size = 3;  ///< usually 2c-1
  std::uint32_t stage1_turns = 2;
  bool lca_turnaround = false;     ///< ablation: turn at column-tree LCA
  /// Precede each step with a P-ROM address-translation phase: every
  /// request routes a lookup to its variable's distributed table entry
  /// before any copy is accessed (paper conclusion; see core/prom.hpp).
  bool prom_lookup = false;
  /// Cycles allotted per protocol phase; 0 = auto (2x round trip +
  /// cluster size). Phases that complete early are charged actual cycles.
  std::uint64_t phase_budget_cycles = 0;
  /// Control overhead charged per phase; default ceil(log2 n) when
  /// n_processors > 1, emulating the tree-borne bookkeeping of LPP.
  std::uint64_t phase_overhead_cycles = ~0ULL;  // ~0 = auto
};

class MotEngine final : public majority::AccessEngine {
 public:
  /// The map's module count must match the scheme geometry:
  /// kHpLeaves: a square number S^2 (S a power of two >= 4, n <= S);
  /// kLppRoots: exactly n (power of two >= 4);
  /// kCrossbar: a power of two (columns), n a power of two (rows).
  MotEngine(std::shared_ptr<const memmap::MemoryMap> map,
            MotEngineConfig config);

  /// Schedules over per-instance scratch (protocol state, packets and the
  /// router's claim table).
  void run_step_into(std::span<const majority::VarRequest> requests,
                     majority::EngineResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return config_.n_processors;
  }
  [[nodiscard]] const MotEngineConfig& config() const { return config_; }
  [[nodiscard]] const net::MotShape& shape() const { return shape_; }
  /// One-way request path length in hops (including the module port).
  [[nodiscard]] std::uint64_t request_hops() const { return request_hops_; }
  /// Cycles spent in P-ROM lookup phases so far (0 unless enabled).
  [[nodiscard]] std::uint64_t prom_cycles() const { return prom_cycles_; }

 private:
  class RoutedPhase;

  /// Request route from `proc` to `module` and the reply back, into `out`.
  void round_trip_path(std::uint32_t proc, std::uint32_t module,
                       net::Path& out) const;
  /// Packet scratch slot `i`, reset for a fresh route.
  net::Packet& packet_at(std::uint32_t i);

  std::shared_ptr<const memmap::MemoryMap> map_;
  MotEngineConfig config_;
  majority::SchedulerConfig protocol_config_;
  net::MotShape shape_;
  std::uint64_t request_hops_ = 0;
  std::uint64_t phase_budget_ = 0;
  std::uint64_t phase_overhead_ = 0;
  std::uint64_t prom_cycles_ = 0;

  majority::ClusterProtocol protocol_;
  majority::ScheduleResult schedule_;
  std::vector<net::Packet> packets_;
  /// Per packet of the current phase: (request, copy) it accesses.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> origin_;
  net::RouteScratch route_;
};

}  // namespace pramsim::core
