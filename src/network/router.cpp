#include "network/router.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"
#include "util/isa.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pramsim::net {

namespace {

#if defined(__x86_64__)

/// The first offset below `count` whose four-edge chunk holds a shared
/// channel, or where the whole chunks end: four edges per compare, loads
/// only inside [0, count).
__attribute__((target("avx2"))) std::size_t first_shared_chunk_avx2(
    const EdgeKey* a, const EdgeKey* b, std::size_t count) {
  std::size_t d = 0;
  for (; d + 4 <= count; d += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + d));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + d));
    const auto same = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(x, y))));
    if (same != 0) {
      return d + static_cast<std::size_t>(std::countr_zero(same));
    }
  }
  return d;
}

#endif

/// The first offset below `count` at which `a` and `b` name the same
/// channel, or `count`: whole four-edge chunks through the vector kernel
/// when `avx2`, the rest one edge at a time.
std::size_t first_shared(const EdgeKey* a, const EdgeKey* b,
                         std::size_t count, bool avx2) {
  std::size_t d = 0;
#if defined(__x86_64__)
  if (avx2 && count >= 4) {
    d = first_shared_chunk_avx2(a, b, count);
  }
#endif
  // From a shared channel the loop returns at once; otherwise it scans
  // the tail.
  while (d < count && a[d] != b[d]) {
    ++d;
  }
  return d;
}

}  // namespace

std::size_t first_shared_channel(std::span<const EdgeKey> a,
                                 std::span<const EdgeKey> b) {
  return first_shared(a.data(), b.data(), std::min(a.size(), b.size()),
                      util::have_avx2());
}

std::size_t first_shared_channel_scalar(std::span<const EdgeKey> a,
                                        std::span<const EdgeKey> b) {
  return first_shared(a.data(), b.data(), std::min(a.size(), b.size()),
                      false);
}

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
  if (in_flight.size() > kScanPackets) {
    claims.reserve(in_flight.size());
  }
  std::uint64_t pending = in_flight.size();
  std::uint64_t cycle = start_cycle;
  const std::uint64_t end = start_cycle + max_cycles;
  std::uint64_t latency_sum = 0;

  // Move packet `i` `hops` hops, one per cycle from `cycle` on, each
  // time the winner of `queue` contenders for its channel.
  auto advance = [&](std::uint32_t i, std::uint64_t queue,
                     std::uint64_t hops) {
    report.max_edge_queue = std::max(report.max_edge_queue, queue);
    Packet& p = packets[i];
    p.next_edge += static_cast<std::uint32_t>(hops);
    report.total_hops += hops;
    p.waiting_since = cycle + hops;
    if (p.next_edge == p.path.size()) {
      p.delivered_at = cycle + hops;
      ++report.delivered;
      --pending;
      const std::uint64_t latency = p.delivered_at - p.injected_at;
      latency_sum += latency;
      report.max_latency = std::max(report.max_latency, latency);
    }
  };

  auto& scan = scratch.scan;
  const bool avx2 = util::have_avx2();

  while (pending > 0 && cycle < end) {
    // Compact away the packets that arrived last cycle while claiming.
    std::size_t kept = 0;
    if (in_flight.size() > kScanPackets) {
      claims.clear();
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
      for (const auto touched : claims.touched()) {
        const RouteScratch::Claim& claim = claims.value_at(touched);
        advance(claim.packet, claim.queue, 1);
      }
      ++cycle;
      continue;
    }

    std::size_t k = 0;
    std::uint64_t next_injection = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t longest = 0;
    for (const std::uint32_t i : in_flight) {
      const Packet& p = packets[i];
      if (p.delivered()) {
        continue;
      }
      in_flight[kept++] = i;
      if (p.injected_at > cycle) {
        next_injection = std::min(next_injection, p.injected_at);
        continue;
      }
      const std::uint64_t left = p.path.size() - p.next_edge;
      longest = std::max(longest, left);
      scan[k++] = {.route = p.path.data() + p.next_edge,
                   .left = left,
                   .since = p.waiting_since,
                   .id = p.id,
                   .slot = i,
                   .queue = 1,
                   .beaten = false};
    }
    in_flight.resize(kept);
    // Every pair on one channel: both count as contenders, and the
    // lower-ranked one (FIFO, ties by id) loses. The one packet per
    // channel that nobody outranks moves.
    bool contended = false;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        RouteScratch::Contender& x = scan[a];
        RouteScratch::Contender& y = scan[b];
        if (*x.route != *y.route) {
          continue;
        }
        contended = true;
        ++x.queue;
        ++y.queue;
        const bool y_first =
            y.since < x.since || (y.since == x.since && y.id < x.id);
        (y_first ? x : y).beaten = true;
      }
    }
    if (contended) {
      for (std::size_t a = 0; a < k; ++a) {
        if (!scan[a].beaten) {
          advance(scan[a].slot, scan[a].queue, 1);
        }
      }
      ++cycle;
      continue;
    }
    // Nobody contends, so every injected packet moves, cycle after cycle,
    // until two of them would claim one channel, a packet is injected,
    // the last one arrives or the budget ends: run ahead to that cycle.
    std::uint64_t run = std::min(end - cycle, next_injection - cycle);
    if (k > 0) {
      run = std::min(run, longest);
    }
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const std::uint64_t both = std::min({scan[a].left, scan[b].left, run});
        // Offset 0 is this cycle's channel, which no pair shares.
        const std::uint64_t meet =
            first_shared(scan[a].route, scan[b].route, both, avx2);
        PRAMSIM_DASSERT(meet > 0);
        if (meet < both) {
          run = meet;
        }
      }
    }
    for (std::size_t a = 0; a < k; ++a) {
      advance(scan[a].slot, 1, std::min(run, scan[a].left));
    }
    cycle += run;
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
