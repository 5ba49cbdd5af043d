// Cycle-accurate synchronous store-and-forward router.
//
// Model (the BDN/DMBDN timing rules the paper's theorems count):
//  * every directed channel (EdgeKey) carries at most one packet per cycle;
//  * packets traverse their precomputed path one edge per cycle when
//    unblocked; blocked packets queue (FIFO by blocking time, ties by
//    packet id — deterministic);
//  * a packet may carry an `injected_at` cycle before which it is held at
//    its source (used to serialize a processor's own injections).
//
// The engine is sparse: per-cycle work is proportional to in-flight
// packets, never to network size, so multi-million-switch 2DMOTs cost
// nothing beyond their traffic. The result does not depend on the order
// packets are handed in: each packet claims one channel per cycle, the
// winners are distinct packets ranked by (waiting_since, id), and the
// report folds only sums and maxima.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "network/topology.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::net {

struct Packet {
  std::uint32_t id = 0;  ///< unique; deterministic tie-break
  std::vector<EdgeKey> path;
  std::uint64_t injected_at = 0;

  // Engine-owned state.
  std::uint32_t next_edge = 0;
  std::uint64_t waiting_since = 0;
  std::uint64_t delivered_at = std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] bool delivered() const {
    return delivered_at != std::numeric_limits<std::uint64_t>::max();
  }
};

struct RouteReport {
  std::uint64_t cycles = 0;         ///< cycles elapsed until completion
  std::uint64_t delivered = 0;      ///< packets that finished their path
  std::uint64_t total_hops = 0;     ///< edges traversed by all packets
  std::uint64_t max_edge_queue = 0; ///< peak packets contending one edge
  double mean_latency = 0.0;        ///< mean delivered_at - injected_at
  std::uint64_t max_latency = 0;
};

/// The router's reusable working set: the per-cycle channel claim table
/// and the list of packets still in flight. A caller that routes many
/// phases keeps one and routes without allocating after warm-up.
struct RouteScratch {
  struct Claim {
    std::uint32_t packet = 0;
    std::uint32_t queue = 0;  ///< packets contending for the channel
  };
  util::ScratchMap<Claim> claims;
  std::vector<std::uint32_t> in_flight;
};

/// Route packets until all are delivered or `max_cycles` elapse.
/// Packet state is updated in place (delivered_at, next_edge,
/// waiting_since), so packets cut off by `max_cycles` can be routed on.
/// `start_cycle` offsets the clock so phased protocols can keep one
/// global time base.
[[nodiscard]] RouteReport route_all(std::span<Packet> packets,
                                    std::uint64_t max_cycles,
                                    std::uint64_t start_cycle,
                                    RouteScratch& scratch);

/// Same, with a scratch of its own.
[[nodiscard]] RouteReport route_all(std::span<Packet> packets,
                                    std::uint64_t max_cycles = 1'000'000,
                                    std::uint64_t start_cycle = 0);

}  // namespace pramsim::net
