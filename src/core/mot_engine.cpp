#include "core/mot_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/prom.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

namespace {

/// No probe seen yet at this processor or column.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Representative of probe `p`'s component (path halving).
std::uint32_t find(std::vector<std::uint32_t>& parent, std::uint32_t p) {
  while (parent[p] != p) {
    parent[p] = parent[parent[p]];
    p = parent[p];
  }
  return p;
}

/// Join probe `p` with the probe first seen at `first`, or record `p`
/// there. The smaller probe stays the root, so a root is its
/// component's first probe.
void join(std::vector<std::uint32_t>& parent, std::uint32_t& first,
          std::uint32_t p) {
  if (first == kNone) {
    first = p;
    return;
  }
  const std::uint32_t a = find(parent, first);
  const std::uint32_t b = find(parent, p);
  parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

const char* to_string(MotScheme scheme) {
  switch (scheme) {
    case MotScheme::kHpLeaves: return "HP-2DMOT(leaves)";
    case MotScheme::kLppRoots: return "LPP-2DMOT(roots)";
    case MotScheme::kCrossbar: return "HP-crossbar(nxM)";
  }
  return "???";
}

MotEngine::MotEngine(std::shared_ptr<const memmap::MemoryMap> map,
                     MotEngineConfig config)
    : map_(std::move(map)), config_(config) {
  const std::uint32_t n = config_.protocol.n_processors;
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(n >= 1);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.protocol.c - 1);
  const std::uint32_t M = map_->num_modules();
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const auto side = static_cast<std::uint32_t>(
          util::isqrt(static_cast<std::uint64_t>(M)));
      PRAMSIM_ASSERT_MSG(static_cast<std::uint64_t>(side) * side == M,
                         "kHpLeaves requires a square module count");
      PRAMSIM_ASSERT_MSG(n <= side,
                         "processors sit at the first n row-tree roots");
      shape_ = net::square_mot(static_cast<std::uint32_t>(side));
      break;
    }
    case MotScheme::kLppRoots:
      PRAMSIM_ASSERT_MSG(M == n,
                         "kLppRoots has one module per root processor");
      shape_ = net::square_mot(static_cast<std::uint32_t>(M));
      break;
    case MotScheme::kCrossbar:
      shape_ = net::rect_mot(n, M);
      break;
  }
  // The longest request: HP routes turn at the column root.
  request_hops_ = net::request_hops(
      config_.scheme == MotScheme::kHpLeaves
          ? net::hp_route(shape_.rows, 0, 0, 0)
          : net::root_module_route(shape_, 0, 0));
  const std::uint64_t round_trip = 2 * request_hops_ - 1;
  phase_budget_ = 2 * round_trip + config_.protocol.cluster_size;
  phase_overhead_ =
      n > 1 ? static_cast<std::uint64_t>(util::ilog2_ceil(n)) : 0;
  proc_first_.assign(n, kNone);
  col_first_.assign(shape_.cols, kNone);
}

net::Route MotEngine::route(std::uint32_t proc, std::uint32_t module) const {
  if (config_.scheme != MotScheme::kHpLeaves) {
    return net::root_module_route(shape_, proc, module);
  }
  // Module (i, j) of the side x side grid is i * side + j, side a power
  // of two.
  const std::uint32_t side = shape_.rows;
  return net::hp_route(side, proc, module >> std::countr_zero(side),
                       module & (side - 1), config_.lca_turnaround);
}

void MotEngine::round_trip_path(std::uint32_t proc, std::uint32_t module,
                                net::Path& out) const {
  const net::Route to = route(proc, module);
  out.resize(net::round_trip_hops(to));
  net::write_round_trip(to, out);
}

std::uint64_t MotEngine::round_trip_hops(std::uint32_t proc,
                                         std::uint32_t module) const {
  return net::round_trip_hops(route(proc, module));
}

MotEngine::PhaseReport MotEngine::route_probes(std::uint64_t budget) {
  const auto count = static_cast<std::uint32_t>(probes_.size());
  // The first-seen slot of the column tree every route to `module`
  // climbs.
  const bool leaves = config_.scheme == MotScheme::kHpLeaves;
  auto column_first = [&](std::uint32_t module) -> std::uint32_t& {
    return col_first_[leaves ? module % shape_.rows : module];
  };
  // Probes that share a source processor or a target column are joined;
  // no other pair can ever claim a common channel.
  parent_.resize(count);
  for (std::uint32_t p = 0; p < count; ++p) {
    parent_[p] = p;
    join(parent_, proc_first_[probes_[p].proc], p);
    join(parent_, column_first(probes_[p].module), p);
  }
  for (const Probe& probe : probes_) {
    proc_first_[probe.proc] = kNone;
    column_first(probe.module) = kNone;
  }
  // Group the probes by component, components in order of their first
  // probe and probes in order within each.
  end_.assign(count, 0);
  for (std::uint32_t p = 0; p < count; ++p) {
    parent_[p] = find(parent_, p);
    ++end_[parent_[p]];
  }
  std::uint32_t next = 0;
  for (std::uint32_t p = 0; p < count; ++p) {
    if (parent_[p] == p) {
      const std::uint32_t size = end_[p];
      end_[p] = next;
      next += size;
    }
  }
  order_.resize(count);
  for (std::uint32_t p = 0; p < count; ++p) {
    order_[end_[parent_[p]]++] = p;
  }

  PhaseReport report;
  delivered_.assign(count, 0);
  for (std::uint32_t begin = 0; begin < count;) {
    const std::uint32_t end = end_[order_[begin]];
    const bool lone = end - begin == 1;
    const Probe& first = probes_[order_[begin]];
    // Alone on every channel of its route, a packet moves one hop per
    // cycle from its injection on.
    const std::uint64_t arrival =
        lone ? first.injected_at + round_trip_hops(first.proc, first.module)
             : 0;
    if (lone && arrival <= budget) {
      delivered_[order_[begin]] = 1;
      ++report.delivered;
      report.cycles = std::max(report.cycles, arrival);
      report.max_queue = std::max<std::uint64_t>(report.max_queue, 1);
    } else {
      for (std::uint32_t k = 0; begin + k < end; ++k) {
        if (k == packets_.size()) {
          packets_.emplace_back();
        }
        const std::uint32_t p = order_[begin + k];
        net::Packet& packet = packets_[k];
        packet.id = p;
        packet.injected_at = probes_[p].injected_at;
        packet.next_edge = 0;
        packet.delivered_at = std::numeric_limits<std::uint64_t>::max();
        round_trip_path(probes_[p].proc, probes_[p].module, packet.path);
      }
      const auto routed = net::route_all({packets_.data(), end - begin},
                                         budget, 0, route_);
      report.cycles = std::max(report.cycles, routed.cycles);
      report.max_queue = std::max(report.max_queue, routed.max_edge_queue);
      report.delivered += routed.delivered;
      for (std::uint32_t k = 0; begin + k < end; ++k) {
        delivered_[order_[begin + k]] = packets_[k].delivered() ? 1 : 0;
      }
    }
    begin = end;
  }
  return report;
}

/// The 2DMOT round: one routed phase. Every live request in `active`
/// sends one packet per unaccessed copy, the phase routes them all within
/// the cycle budget, and each delivered packet accesses its copy (in
/// packet order; deliveries past a request's c-th count as neither access
/// nor work).
class MotEngine::RoutedPhase final : public majority::ClusterProtocol::Kernel {
 public:
  explicit RoutedPhase(MotEngine& engine)
      : engine_(engine), budget_(engine.phase_budget_) {}

  majority::RoundOutcome round(majority::ClusterProtocol& protocol,
                               std::span<const std::uint32_t> active,
                               majority::Stage stage) override {
    MotEngine& e = engine_;
    const std::uint32_t r = protocol.redundancy();
    const std::uint32_t s = protocol.cluster_size();
    const std::uint32_t n = e.n_processors();
    const auto requests = protocol.requests();
    e.probes_.clear();
    e.origin_.clear();
    for (const auto idx : active) {
      const std::uint32_t cluster = requests[idx].requester.value() / s;
      const std::uint64_t mask = protocol.mask(idx);
      const auto copies = protocol.copies(idx);
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        if ((mask >> copy) & 1ULL) {
          continue;
        }
        // Cluster member `copy mod s` handles this copy: the packet
        // starts from that processor's row-tree root. Members take turns
        // injecting (injected_at staggers same-source packets).
        e.probes_.push_back({.proc = (cluster * s + copy % s) % n,
                             .module = copies[copy].value(),
                             .injected_at = copy / s});
        e.origin_.emplace_back(idx, copy);
      }
    }
    // Live requests always have an unaccessed copy to send for.
    PRAMSIM_DASSERT(!e.probes_.empty());
    const PhaseReport report = e.route_probes(budget_);
    cycles_ += report.cycles + e.phase_overhead_;
    majority::RoundOutcome outcome{.max_queue = report.max_queue};
    for (std::uint32_t p = 0; p < e.probes_.size(); ++p) {
      if (e.delivered_[p] != 0 &&
          protocol.access(e.origin_[p].first, e.origin_[p].second)) {
        ++outcome.served;
      }
    }
    if (stage == majority::Stage::kDrain && outcome.served == 0) {
      // Phase budget too tight for the current congestion; widen it so
      // the protocol always terminates (never triggers at the defaults).
      budget_ *= 2;
    }
    return outcome;
  }

  /// Network cycles of every phase so far.
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  MotEngine& engine_;
  std::uint64_t budget_;
  std::uint64_t cycles_ = 0;
};

void MotEngine::run_step_into(std::span<const majority::VarRequest> requests,
                              majority::ScheduleResult& out) {
  std::uint64_t prom = 0;
  // ---- optional P-ROM address-translation phase ----------------------
  // Before any copy access, every requester fetches its variable's map
  // entry from the distributed table (one routed round trip to the
  // entry's home module). This is the paper's conclusion-section scheme;
  // with it, processors need no local O(m log rM)-bit tables.
  if (config_.prom_lookup && !requests.empty()) {
    probes_.clear();
    for (const majority::VarRequest& request : requests) {
      probes_.push_back(
          {.proc = request.requester.value() % n_processors(),
           .module = prom_home_module(request.var, map_->num_modules())
                         .value()});
    }
    const PhaseReport report = route_probes(/*budget=*/1'000'000);
    PRAMSIM_ASSERT_MSG(report.delivered == requests.size(),
                       "P-ROM lookup phase failed to complete");
    prom = report.cycles;
    prom_cycles_ += report.cycles;
  }

  RoutedPhase phase(*this);
  protocol_.run(*map_, requests, config_.protocol, phase, out);
  out.time = prom + phase.cycles();
}

}  // namespace pramsim::core
