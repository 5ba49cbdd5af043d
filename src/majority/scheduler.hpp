// Round scheduler for the majority protocol on module-contention machines
// (MPC / DMMPC: unit module bandwidth, free interconnect).
//
// This is the access-scheduling core of Upfal-Wigderson as organized by
// Luccio-Pietracaprina-Pucci and adopted in the paper (§1, §3):
//
//   * processors are grouped into clusters of 2c-1;
//   * STAGE 1 interleaves the cluster's (up to) 2c-1 member variables over
//     phases, staggered across clusters: in phase t, cluster k works on
//     member (t + k) mod (2c-1), all cluster processors probing the
//     variable's still-unaccessed copies at once;
//   * a variable is live until c of its copies have been accessed, then
//     dead (it stops contending — the key idea);
//   * STAGE 2 drains the leftover live variables, one per cluster,
//     repeating phases until none remain.
//
// ClusterProtocol is the one home of that two-stage structure. What a
// phase costs is the machine's business, so the driver takes the round
// as a kernel:
//
//   * FirstClaimRound (here) - one DMMPC round: every module serves at
//     most one copy access, winners resolved in first-claim order. Its
//     round count *is* the DMMPC simulation time of the step (Theorem
//     2's measurable); DmmpcEngine charges each round a fixed cycle
//     count, which is how the BDN baselines price it;
//   * core::MotEngine's routed phase - real packets on a 2DMOT, charged
//     in network cycles.
//
// Phase bookkeeping (which variables are live, stage transitions) is
// computed centrally; the cost model charges only the
// module-bandwidth-limited copy accesses, which is what the theorems
// count. ScheduleResult is the one result type of a step: the protocol
// fills it in place, and the engine adds the step's time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "memmap/memory_map.hpp"
#include "pram/types.hpp"
#include "util/bitset.hpp"
#include "util/scratch_map.hpp"
#include "util/stats.hpp"
#include "util/strong_id.hpp"

namespace pramsim::majority {

/// One distinct variable's combined access for a step. When the step both
/// reads and writes the variable, the single request carries the write
/// (op = kWrite, requester = the winning writer): the accessed copy set
/// serves the read and then commits the write, so losing the write marker
/// would silently drop the mutation from engine-level simulation.
struct VarRequest {
  VarId var;
  ProcId requester;
  pram::AccessOp op = pram::AccessOp::kRead;
};

struct SchedulerConfig {
  std::uint32_t c = 2;             ///< access threshold (r = 2c-1 expected)
  std::uint32_t cluster_size = 3;  ///< processors per cluster (usually r)
  std::uint32_t n_processors = 1;  ///< n
  /// Ablation: no clusters — every live variable probes all unaccessed
  /// copies every round (maximal-parallelism upper bound).
  bool all_at_once = false;
};

/// One step's schedule, as every engine reports it.
struct ScheduleResult {
  std::uint64_t time = 0;  ///< rounds (DMMPC) or network cycles (BDN kinds)
  std::uint64_t rounds = 0;
  std::uint64_t stage1_rounds = 0;
  std::uint64_t stage2_rounds = 0;
  std::uint64_t work = 0;  ///< copy accesses performed
  std::uint64_t live_after_stage1 = 0;
  std::uint64_t max_queue = 0;  ///< peak contention at one module/channel
  /// Per request: bitmask of which copy indices were accessed (>= c bits
  /// set for every request on return).
  std::vector<std::uint64_t> accessed_mask;
  /// Per request: the map's modules of its r copies, request i's at
  /// [i*r, (i+1)*r), placed once per step by one
  /// MemoryMap::copies_batch call.
  std::vector<ModuleId> copies;
  /// Live-variable count after each round — the decay curve whose
  /// geometric shape is the content of the Upfal-Wigderson progress
  /// argument (driven by the Lemma 2 expansion).
  std::vector<std::uint64_t> live_per_round;

  /// Zero every count and empty every vector, keeping their capacity.
  void clear() {
    time = rounds = stage1_rounds = stage2_rounds = work = 0;
    live_after_stage1 = max_queue = 0;
    accessed_mask.clear();
    copies.clear();
    live_per_round.clear();
  }
};

/// Which half of the protocol a round belongs to.
enum class Stage : std::uint8_t {
  kInterleaved,  ///< stage 1: staggered cluster turns
  kDrain,        ///< stage 2 (and the all_at_once ablation)
};

/// What one round reports back to the driver.
struct RoundOutcome {
  std::uint64_t served = 0;     ///< copy accesses recorded this round
  std::uint64_t max_queue = 0;  ///< peak contention at one module/channel
};

/// The two-stage cluster protocol over reusable per-engine scratch: the
/// step's copies are placed by one batch call into the result's flat
/// table, the (cluster, member) slots are a dense table indexed by
/// requester id, and the live count is kept incrementally. A warmed-up
/// instance runs a step without touching the heap.
class ClusterProtocol {
 public:
  /// One machine round over the live requests in `active` (distinct, all
  /// live on entry). The kernel decides which copies get accessed and
  /// records each through access(); the driver does the bookkeeping.
  class Kernel {
   public:
    virtual ~Kernel() = default;
    virtual RoundOutcome round(ClusterProtocol& protocol,
                               std::span<const std::uint32_t> active,
                               Stage stage) = 0;
  };

  /// Schedule one step's requests into `result`, in place: its vectors
  /// are reused, and its accessed_mask and copies are the protocol's
  /// working mask and copies table. Every field but `time` is set.
  /// Preconditions: requests hold distinct variables (combining already
  /// done) and map.redundancy() <= 64.
  void run(const memmap::MemoryMap& map, std::span<const VarRequest> requests,
           const SchedulerConfig& config, Kernel& kernel,
           ScheduleResult& result);

  // ---- kernel-facing view of the step in progress (inside run()) ----
  [[nodiscard]] std::uint32_t redundancy() const { return r_; }
  [[nodiscard]] std::uint32_t cluster_size() const { return s_; }
  [[nodiscard]] std::uint32_t num_modules() const { return modules_; }
  [[nodiscard]] std::span<const VarRequest> requests() const {
    return requests_;
  }
  [[nodiscard]] std::span<const ModuleId> copies(std::uint32_t request) const {
    return {copies_ + static_cast<std::size_t>(request) * r_, r_};
  }
  [[nodiscard]] std::uint64_t mask(std::uint32_t request) const {
    return mask_[request];
  }
  /// Record that `request` accessed `copy`. A request dies on its c-th
  /// access; later accesses in the same round do not count (returns
  /// false).
  bool access(std::uint32_t request, std::uint32_t copy) {
    if (accessed_[request] >= c_) {
      return false;
    }
    mask_[request] |= 1ULL << copy;
    if (++accessed_[request] == c_) {
      --live_;
    }
    return true;
  }

 private:
  [[nodiscard]] bool live(std::uint32_t request) const {
    return accessed_[request] < c_;
  }
  void play(Kernel& kernel, std::span<const std::uint32_t> active,
            Stage stage, ScheduleResult& result);

  std::span<const VarRequest> requests_;
  std::uint32_t r_ = 0;
  std::uint32_t c_ = 0;
  std::uint32_t s_ = 1;
  std::uint32_t modules_ = 0;
  std::uint64_t live_ = 0;
  std::vector<std::uint32_t> accessed_;
  /// The result's accessed_mask and copies while run() works on them.
  std::uint64_t* mask_ = nullptr;
  const ModuleId* copies_ = nullptr;
  /// The requests' variables, the batch placement's keys.
  std::vector<VarId> vars_;
  /// Requester id -> request index (~0 when none) for the requesters
  /// inside the n_processors clusters: slot (cluster k, member j) is id
  /// k*s + j.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> pending_;
};

/// One module's claim in a DMMPC round: the best probe so far and how
/// many probes reached the module.
struct ModuleClaim {
  std::uint32_t module = 0;
  std::uint32_t request = 0;
  std::uint32_t copy = 0;
  std::uint32_t queue = 0;
};

/// The DMMPC round: every request in `active` probes its unaccessed copies
/// at once and each module serves one probe — lowest (var, copy) wins.
/// Claimed modules are marked in a one-bit-per-module set and each first
/// claim is appended to a dense list; only modules probed twice go
/// through a side lookup. Winners resolve in first-claim order: a request
/// that wins two modules with one access left takes the first one
/// resolved, so that order steers the next round's probes.
class FirstClaimRound final : public ClusterProtocol::Kernel {
 public:
  RoundOutcome round(ClusterProtocol& protocol,
                     std::span<const std::uint32_t> active,
                     Stage stage) override;

 private:
  util::DynamicBitset claimed_;    ///< sized to the map's module count
  std::vector<ModuleClaim> first_;  ///< first claims, in claim order
  /// Contended module -> best of its later probes (queue counts them).
  util::ScratchMap<std::uint32_t, ModuleClaim> later_;
};

}  // namespace pramsim::majority
