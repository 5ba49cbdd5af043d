// The deterministic event journal: a step-stamped, ring-bounded record
// of every noteworthy reliability event — fault onsets, degraded votes
// with dissent, share-checksum rejections, relocations, scrub repairs,
// oracle-caught lies.
//
// Determinism contract (the same rule as every telemetry fold in this
// repo): journal CONTENTS are bit-identical at any worker count and
// across reruns of the same seed. Two mechanisms deliver that:
//
//  * per-step canonical commit: events append into a pending buffer for
//    the current step and are sorted by (kind, entity, unit, a, b)
//    before committing to the ring, so a step's journal does not depend
//    on the order its emitter appended in (a served step's value phase
//    appends per-chunk buffers, scrub appends in scan order);
//  * bounded drop-oldest ring: the journal keeps the LAST `capacity`
//    committed events; `dropped()` counts evictions, which is itself a
//    deterministic function of the run.
//
// The journal is single-writer: every append happens on the serving
// thread (value-phase chunks buffer their events per chunk and fold
// them in chunk order after the fan-out, like every other tally).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pramsim::obs {

/// Event vocabulary. Field semantics per kind (entity/unit/a/b):
///  kFaultOnset      entity=module, a=onset step (emitted when serving
///                   first crosses the onset; static faults surface at
///                   the first served step with a=0)
///  kDegradedVote    entity=var, unit=erased, a=dissenting, b=survivors
///  kDegradedDecode  entity=block, unit=erased, a=silently faulty shares
///  kChecksumReject  entity=block, unit=share index
///  kUncorrectable   entity=var or block, unit=erased, a=dissenting/faulty
///  kRelocation      entity=var or block, unit=copy/share index,
///                   a=old module, b=replacement module
///  kScrubRepair     entity=var or block, unit=copies/shares relocated
///  kWrongRead       entity=var, a=value served, b=value expected
///  kRehash          entity=rehash ordinal, a=triggering max load
///  kCacheInvalidateDead   entity=var, a=fill step, b=current step (a
///                   cached line's backing module died after fill)
///  kCacheInvalidateScrub  entity=var, a=fill step, b=relocation stamp (a
///                   scrub pass relocated storage after fill)
///  kCheckpointBegin entity=checkpoint step (the step the snapshot
///                   covers), a=checkpoint ordinal
///  kCheckpointEnd   entity=checkpoint step, a=serialized bytes
///  kWalReplay       entity=replayed record's step, unit=record kind
///                   (durability::WalRecordKind), a=writes replayed
enum class EventKind : std::uint8_t {
  kFaultOnset = 0,
  kDegradedVote,
  kDegradedDecode,
  kChecksumReject,
  kUncorrectable,
  kRelocation,
  kScrubRepair,
  kWrongRead,
  kRehash,
  kCacheInvalidateDead,
  kCacheInvalidateScrub,
  kCheckpointBegin,
  kCheckpointEnd,
  kWalReplay,
};

inline constexpr std::size_t kEventKindCount = 14;

[[nodiscard]] const char* to_string(EventKind kind);

struct Event {
  std::uint64_t step = 0;  ///< engine step clock at emission
  EventKind kind{};
  std::uint32_t unit = 0;
  std::uint64_t entity = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  Journal() : Journal(kDefaultCapacity) {}
  explicit Journal(std::size_t capacity);

  void append(std::uint64_t step, EventKind kind, std::uint64_t entity,
              std::uint32_t unit = 0, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    append(Event{step, kind, unit, entity, a, b});
  }
  void append(const Event& event);

  /// Commit the pending step (canonical sort) and trim the ring to
  /// capacity. Idempotent; exporters and merge call it for you.
  void flush();

  /// Concatenate `other`'s events (committed ring, then canonically
  /// sorted pending) after this journal's, re-trimming to capacity.
  /// Deterministic when sources merge in a fixed order — the driver
  /// folds per-shard journals in shard order.
  void merge(const Journal& other);

  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events ever appended / evicted by the ring bound (both
  /// deterministic; size() == recorded() - dropped() after flush()).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const {
    return ring_.size() + pending_.size();
  }

  /// The committed events, oldest first. Call flush() first (exporters
  /// do); events still pending in the current step are not visible here.
  [[nodiscard]] std::span<const Event> events() const { return ring_; }

 private:
  void commit_pending();
  void trim(std::size_t keep);

  std::size_t capacity_;
  /// Committed events, oldest first. Bounded lazily: eviction batches
  /// only run when the vector doubles past capacity, then flush() trims
  /// exactly to capacity — same final content as a per-event ring,
  /// amortized O(1) per append.
  std::vector<Event> ring_;
  std::vector<Event> pending_;       ///< current step, not yet sorted
  std::uint64_t pending_step_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace pramsim::obs
