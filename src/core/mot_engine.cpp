#include "core/mot_engine.hpp"

#include <limits>

#include "core/prom.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

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
  PRAMSIM_ASSERT(map_ != nullptr);
  PRAMSIM_ASSERT(config_.n_processors >= 1);
  PRAMSIM_ASSERT(map_->redundancy() == 2 * config_.c - 1);
  const std::uint32_t M = map_->num_modules();
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const auto side = static_cast<std::uint32_t>(
          util::isqrt(static_cast<std::uint64_t>(M)));
      PRAMSIM_ASSERT_MSG(static_cast<std::uint64_t>(side) * side == M,
                         "kHpLeaves requires a square module count");
      PRAMSIM_ASSERT_MSG(config_.n_processors <= side,
                         "processors sit at the first n row-tree roots");
      shape_ = net::square_mot(static_cast<std::uint32_t>(side));
      const auto depth = static_cast<std::uint64_t>(util::ilog2_floor(side));
      request_hops_ = 3 * depth + 1;
      break;
    }
    case MotScheme::kLppRoots: {
      PRAMSIM_ASSERT_MSG(M == config_.n_processors,
                         "kLppRoots has one module per root processor");
      shape_ = net::square_mot(static_cast<std::uint32_t>(M));
      const auto depth = static_cast<std::uint64_t>(util::ilog2_floor(M));
      request_hops_ = 2 * depth + 1;
      break;
    }
    case MotScheme::kCrossbar: {
      shape_ = net::rect_mot(config_.n_processors, M);
      request_hops_ =
          static_cast<std::uint64_t>(util::ilog2_floor(M)) +
          static_cast<std::uint64_t>(util::ilog2_floor(config_.n_processors)) +
          1;
      break;
    }
  }
  const std::uint64_t round_trip = 2 * request_hops_ - 1;
  phase_budget_ = config_.phase_budget_cycles != 0
                      ? config_.phase_budget_cycles
                      : 2 * round_trip + config_.cluster_size;
  protocol_config_ = {.c = config_.c,
                      .cluster_size = config_.cluster_size,
                      .n_processors = config_.n_processors,
                      .stage1_turns = config_.stage1_turns};
  phase_overhead_ =
      config_.phase_overhead_cycles != ~0ULL
          ? config_.phase_overhead_cycles
          : (config_.n_processors > 1
                 ? static_cast<std::uint64_t>(
                       util::ilog2_ceil(config_.n_processors))
                 : 0);
}

void MotEngine::round_trip_path(std::uint32_t proc, std::uint32_t module,
                                net::Path& out) const {
  out.clear();
  switch (config_.scheme) {
    case MotScheme::kHpLeaves: {
      const std::uint32_t side = shape_.rows;
      net::append_hp_request_path(out, side, proc, module / side,
                                  module % side, config_.lca_turnaround);
      break;
    }
    case MotScheme::kLppRoots:
    case MotScheme::kCrossbar:
      net::append_root_module_request_path(out, shape_, proc, module);
      break;
  }
  // Reply retraces everything but the module port.
  const std::size_t one_way = out.size();
  out.reserve(2 * one_way - 1);
  for (std::size_t i = one_way - 1; i > 0; --i) {
    out.push_back(net::flipped(out[i - 1]));
  }
}

net::Packet& MotEngine::packet_at(std::uint32_t i) {
  if (i == packets_.size()) {
    packets_.emplace_back();
  }
  net::Packet& packet = packets_[i];
  packet.id = i;
  packet.injected_at = 0;
  packet.next_edge = 0;
  packet.waiting_since = 0;
  packet.delivered_at = std::numeric_limits<std::uint64_t>::max();
  return packet;
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
    const auto requests = protocol.requests();
    std::uint32_t count = 0;
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
        const std::uint32_t proc =
            (cluster * s + copy % s) % e.config_.n_processors;
        net::Packet& packet = e.packet_at(count++);
        packet.injected_at = copy / s;  // serialize a member's own packets
        e.round_trip_path(proc, copies[copy].value(), packet.path);
        e.origin_.emplace_back(idx, copy);
      }
    }
    // Live requests always have an unaccessed copy to send for.
    PRAMSIM_DASSERT(count > 0);
    const auto report =
        net::route_all({e.packets_.data(), count}, budget_, 0, e.route_);
    cycles_ += report.cycles + e.phase_overhead_;
    majority::RoundOutcome outcome{.max_queue = report.max_edge_queue};
    for (std::uint32_t p = 0; p < count; ++p) {
      if (e.packets_[p].delivered() &&
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
                              majority::EngineResult& out) {
  std::uint64_t prom = 0;
  // ---- optional P-ROM address-translation phase ----------------------
  // Before any copy access, every requester fetches its variable's map
  // entry from the distributed table (one routed round trip to the
  // entry's home module). This is the paper's conclusion-section scheme;
  // with it, processors need no local O(m log rM)-bit tables.
  if (config_.prom_lookup && !requests.empty()) {
    for (std::uint32_t i = 0; i < requests.size(); ++i) {
      const auto home =
          prom_home_module(requests[i].var, map_->num_modules());
      round_trip_path(requests[i].requester.value() % config_.n_processors,
                      home.value(), packet_at(i).path);
    }
    const auto report =
        net::route_all({packets_.data(), requests.size()},
                       /*max_cycles=*/1'000'000, 0, route_);
    PRAMSIM_ASSERT_MSG(report.delivered == requests.size(),
                       "P-ROM lookup phase failed to complete");
    prom = report.cycles;
    prom_cycles_ += report.cycles;
  }

  RoutedPhase phase(*this);
  protocol_.run(*map_, requests, protocol_config_, phase, schedule_);
  majority::copy_schedule(schedule_, out);
  out.time = prom + phase.cycles();
}

}  // namespace pramsim::core
