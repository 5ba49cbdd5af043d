// durability::recover — restart recovery: load the newest VALID
// checkpoint (a torn newest file falls back to its predecessor), replay
// the WAL tail (committed steps newer than the checkpoint) by poking
// absolute values, then optionally run a scrub pass so redundant
// schemes re-establish their redundancy invariants before serving
// resumes.
//
// Replay is inherently idempotent: WAL step-commit records carry
// absolute (var, value) pairs, so replaying a record the checkpoint
// already covers — possible when a crash lands between checkpoint write
// and WAL truncation (kAfterCheckpointPreTruncate) — is filtered by the
// step bound, and replaying the whole log twice converges to the same
// state. Recovery never advances the memory's step clock: pokes are
// untimed, and stamp freshness stays monotone because the restored
// clock already upper-bounds every replayed write's origin step.
#pragma once

#include <cstdint>
#include <string>

#include "obs/sink.hpp"
#include "pram/memory_system.hpp"

namespace pramsim::durability {

struct RecoveryOutcome {
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_step = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t replayed_writes = 0;
  /// Records skipped because the checkpoint already covers their step
  /// (a crash before WAL truncation leaves such a prefix).
  std::uint64_t skipped_records = 0;
  bool torn_wal_tail = false;
  std::uint64_t wal_bytes_replayed = 0;
  /// The committed horizon recovery re-established:
  /// max(checkpoint step, last durable WAL commit step).
  std::uint64_t recovered_step = 0;
  pram::ScrubResult scrub;
};

/// Recover `memory` (freshly constructed, same configuration as the
/// crashed run) from `checkpoint_dir` + `wal_path`. Missing checkpoint
/// and/or WAL degrade gracefully: recovery from nothing is a no-op that
/// reports recovered_step 0. `scrub_budget` > 0 runs one scrub pass
/// after replay; `sink` receives kWalReplay journal events and wal.*
/// counters.
RecoveryOutcome recover(pram::MemorySystem& memory,
                        const std::string& wal_path,
                        const std::string& checkpoint_dir,
                        std::uint64_t scrub_budget = 0,
                        obs::Sink* sink = nullptr);

}  // namespace pramsim::durability
