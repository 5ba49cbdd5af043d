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
//
// A cycle with at most kScanPackets packets in flight resolves its
// claims by a hash-free scan: every injected packet is compared with the
// others on its next channel, and the one nobody outranks moves. When no
// two of them want one channel, every one of them moves each cycle until
// two would meet further along their paths, a packet is injected, the
// last one arrives or the budget ends; the scan finds that cycle by
// comparing the pairs' remaining paths and runs ahead to it in one step.
// The pairwise search, first_shared_channel, compares four edges per
// vector compare on AVX2 hosts (util::have_avx2) and finishes with the
// scalar loop, first_shared_channel_scalar, which stays callable as the
// reference. Larger sets claim through RouteScratch's hashed table, one
// probe per packet per cycle. Both give the same winners and the same
// queue counts, so a set that shrinks below the limit mid-route switches
// to the scan unseen. Routing packet sets that share no channel one at a
// time folds to the report of routing their union: cycles and the queue
// and latency peaks as maxima, the rest as sums (mean_latency weighted
// by delivered).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "network/topology.hpp"
#include "util/scratch_map.hpp"

namespace pramsim::net {

/// In-flight packet count up to which a cycle is resolved by the pairwise
/// scan instead of the claim table. The scan's work per contended cycle
/// grows as the square of the set: on a 4-core x86-64 VM it beat the
/// table up to about 12 packets contending on a 4 x 4 mesh, and up to
/// about 16 on 2DMOT round trips into one column, and took twice the
/// table's time at 32 on both.
inline constexpr std::size_t kScanPackets = 12;

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
/// (used while more than kScanPackets packets are in flight), the scan's
/// snapshot of the injected packets (used otherwise) and the list of
/// packets still in flight. A caller that routes many phases keeps one
/// and routes without allocating after warm-up.
struct RouteScratch {
  struct Claim {
    std::uint32_t packet = 0;
    std::uint32_t queue = 0;  ///< packets contending for the channel
  };
  struct Contender {
    const EdgeKey* route = nullptr;  ///< the rest of the packet's path
    std::uint64_t left = 0;          ///< edges in it
    std::uint64_t since = 0;         ///< the packet's waiting_since
    std::uint32_t id = 0;
    std::uint32_t slot = 0;    ///< index in the routed span
    std::uint32_t queue = 0;   ///< packets contending for its channel
    bool beaten = false;       ///< another packet outranks it this cycle
  };
  util::ScratchMap<std::uint64_t, Claim> claims;
  std::array<Contender, kScanPackets> scan;
  std::vector<std::uint32_t> in_flight;
};

/// The first offset at which routes `a` and `b` name the same channel, or
/// the shorter route's length when they never do. On x86-64 hosts with
/// AVX2 (util::have_avx2) four edges are compared at a time, and no load
/// reaches past the shorter route; the scalar loop finishes the tail.
[[nodiscard]] std::size_t first_shared_channel(std::span<const EdgeKey> a,
                                               std::span<const EdgeKey> b);

/// The same search through the scalar loop only, on every host.
[[nodiscard]] std::size_t first_shared_channel_scalar(
    std::span<const EdgeKey> a, std::span<const EdgeKey> b);

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
