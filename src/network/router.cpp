#include "network/router.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace pramsim::net {

RouteReport route_all(std::span<Packet> packets, std::uint64_t max_cycles,
                      std::uint64_t start_cycle, RouteScratch& scratch) {
  PRAMSIM_ASSERT(packets.size() <= std::numeric_limits<std::uint32_t>::max());
  RouteReport report;
  std::vector<std::uint32_t>& in_flight = scratch.in_flight;
  in_flight.clear();
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    Packet& packet = packets[i];
    if (packet.delivered()) {
      continue;
    }
    if (packet.next_edge < packet.path.size()) {
      in_flight.push_back(i);
      packet.waiting_since = std::max(packet.injected_at, start_cycle);
    } else {
      packet.delivered_at = start_cycle;  // empty path: delivered at once
      ++report.delivered;
    }
  }

  auto& claims = scratch.claims;
  claims.reserve(in_flight.size());
  std::uint64_t pending = in_flight.size();
  std::uint64_t cycle = start_cycle;
  std::uint64_t latency_sum = 0;

  while (pending > 0 && cycle < start_cycle + max_cycles) {
    claims.clear();
    // Compact away the packets that arrived last cycle while claiming.
    std::size_t kept = 0;
    for (const std::uint32_t i : in_flight) {
      const Packet& p = packets[i];
      if (p.delivered()) {
        continue;
      }
      in_flight[kept++] = i;
      if (p.injected_at > cycle) {
        continue;
      }
      auto [claim, fresh] =
          claims.try_emplace(p.path[p.next_edge].raw, {i, 1});
      if (!fresh) {
        ++claim->queue;
        const Packet& cur = packets[claim->packet];
        // FIFO: the packet blocked longest wins; ties by id.
        if (p.waiting_since < cur.waiting_since ||
            (p.waiting_since == cur.waiting_since && p.id < cur.id)) {
          claim->packet = i;
        }
      }
    }
    in_flight.resize(kept);
    for (const auto slot : claims.touched()) {
      const RouteScratch::Claim& claim = claims.value_at(slot);
      report.max_edge_queue =
          std::max<std::uint64_t>(report.max_edge_queue, claim.queue);
      Packet& p = packets[claim.packet];
      ++p.next_edge;
      ++report.total_hops;
      p.waiting_since = cycle + 1;
      if (p.next_edge == p.path.size()) {
        p.delivered_at = cycle + 1;
        ++report.delivered;
        --pending;
        const std::uint64_t latency = p.delivered_at - p.injected_at;
        latency_sum += latency;
        report.max_latency = std::max(report.max_latency, latency);
      }
    }
    ++cycle;
  }

  report.cycles = cycle - start_cycle;
  if (report.delivered > 0) {
    report.mean_latency =
        static_cast<double>(latency_sum) / static_cast<double>(report.delivered);
  }
  return report;
}

RouteReport route_all(std::span<Packet> packets, std::uint64_t max_cycles,
                      std::uint64_t start_cycle) {
  RouteScratch scratch;
  return route_all(packets, max_cycles, start_cycle, scratch);
}

}  // namespace pramsim::net
