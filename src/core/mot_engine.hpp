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
// unit-capacity module ports within a cycle budget of twice the round
// trip plus the cluster size; elapsed time is network cycles. A
// per-phase control overhead of ceil(log2 n) cycles accounts for the
// prefix/sorting control work the LPP machinery performs on the trees
// between phases.
//
// A round trip uses only its source processor's row tree, its module
// column's tree and the module's port, so two packets of a phase can
// meet only when they leave the same processor or enter the same
// column. Every routed phase (the protocol's and the P-ROM lookup's) is
// therefore split into the components of that relation, joined by a
// union-find over the phase's probes. A one-packet component never
// waits: it arrives at injected_at + round_trip_hops() with queue 1, and
// its path is never built (one the budget would cut off routes like any
// other component). Each larger component routes on its own, its
// packets keeping the phase's ids so the FIFO tie-break is unchanged;
// each packet's round trip is written in closed form by
// net::write_round_trip into the packet's reused buffer, and
// round_trip_hops() and request_hops() read the same route's length.
// The phase reports the maxima of its components' cycles and queues,
// which is what routing the whole phase at once reports, and applies
// deliveries in probe order.
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
  /// The cluster protocol's c (r = 2c-1), cluster size and processors.
  majority::SchedulerConfig protocol;
  bool lca_turnaround = false;     ///< ablation: turn at column-tree LCA
  /// Precede each step with a P-ROM address-translation phase: every
  /// request routes a lookup to its variable's distributed table entry
  /// before any copy is accessed (paper conclusion; see core/prom.hpp).
  bool prom_lookup = false;
};

class MotEngine final : public majority::AccessEngine {
 public:
  /// The map's module count must match the scheme geometry:
  /// kHpLeaves: a square number S^2 (S a power of two >= 4, n <= S);
  /// kLppRoots: exactly n (power of two >= 4);
  /// kCrossbar: a power of two (columns), n a power of two (rows).
  MotEngine(std::shared_ptr<const memmap::MemoryMap> map,
            MotEngineConfig config);

  /// Schedules over per-instance scratch (protocol state, the phase's
  /// probes and component tables, packets and the router's scratch).
  void run_step_into(std::span<const majority::VarRequest> requests,
                     majority::ScheduleResult& out) override;

  [[nodiscard]] const memmap::MemoryMap& map() const override {
    return *map_;
  }
  [[nodiscard]] std::uint32_t n_processors() const override {
    return config_.protocol.n_processors;
  }
  [[nodiscard]] const net::MotShape& shape() const { return shape_; }
  /// One-way request path length in hops (including the module port).
  [[nodiscard]] std::uint64_t request_hops() const { return request_hops_; }
  /// Hops of the round trip from processor `proc` to `module` and back:
  /// the cycles a packet alone on its channels takes.
  [[nodiscard]] std::uint64_t round_trip_hops(std::uint32_t proc,
                                              std::uint32_t module) const;
  /// Cycles spent in P-ROM lookup phases so far (0 unless enabled).
  [[nodiscard]] std::uint64_t prom_cycles() const { return prom_cycles_; }

 private:
  class RoutedPhase;

  /// One packet of a routed phase: a round trip from `proc` to `module`
  /// that leaves at cycle `injected_at`.
  struct Probe {
    std::uint32_t proc = 0;
    std::uint32_t module = 0;
    std::uint64_t injected_at = 0;
  };
  /// What a routed phase reports: the cycles until its last delivery (or
  /// the budget), the peak channel queue and the packets delivered.
  struct PhaseReport {
    std::uint64_t cycles = 0;
    std::uint64_t max_queue = 0;
    std::uint64_t delivered = 0;
  };

  /// Route the phase in probes_ within `budget` cycles, component by
  /// component, and set delivered_[p] for every probe p.
  PhaseReport route_probes(std::uint64_t budget);
  /// The closed-form route from processor `proc` to `module`.
  [[nodiscard]] net::Route route(std::uint32_t proc,
                                 std::uint32_t module) const;
  /// Request route from `proc` to `module` and the reply back, written
  /// over `out`, which is resized to the round trip.
  void round_trip_path(std::uint32_t proc, std::uint32_t module,
                       net::Path& out) const;

  std::shared_ptr<const memmap::MemoryMap> map_;
  MotEngineConfig config_;
  net::MotShape shape_;
  std::uint64_t request_hops_ = 0;
  /// Cycles allotted per phase: twice the round trip plus the cluster
  /// size. Phases that complete early are charged actual cycles.
  std::uint64_t phase_budget_ = 0;
  /// Control overhead charged per phase: ceil(log2 n) for n > 1, the
  /// tree-borne bookkeeping of LPP.
  std::uint64_t phase_overhead_ = 0;
  std::uint64_t prom_cycles_ = 0;

  majority::ClusterProtocol protocol_;
  std::vector<Probe> probes_;
  /// Per probe of the current phase: (request, copy) it accesses.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> origin_;
  /// Per probe: delivered within the phase's budget.
  std::vector<std::uint8_t> delivered_;
  /// Per probe: union-find parent, then the component's smallest probe.
  std::vector<std::uint32_t> parent_;
  /// Per component's smallest probe: its member count, then its end in
  /// order_.
  std::vector<std::uint32_t> end_;
  /// The probes grouped by component, ascending within each component.
  std::vector<std::uint32_t> order_;
  /// First probe of the phase per processor and per column; every entry
  /// is ~0 between phases (reset through the probe list).
  std::vector<std::uint32_t> proc_first_;
  std::vector<std::uint32_t> col_first_;
  /// Packets of the multi-packet component being routed.
  std::vector<net::Packet> packets_;
  net::RouteScratch route_;
};

}  // namespace pramsim::core
