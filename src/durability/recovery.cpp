#include "durability/recovery.hpp"

#include <algorithm>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"

namespace pramsim::durability {

RecoveryOutcome recover(pram::MemorySystem& memory,
                        const std::string& wal_path,
                        const std::string& checkpoint_dir,
                        std::uint64_t scrub_budget, obs::Sink* sink) {
  RecoveryOutcome outcome;

  if (const auto found = Checkpointer::latest(checkpoint_dir)) {
    outcome.checkpoint_loaded = Checkpointer::load(found->path, memory);
    if (outcome.checkpoint_loaded) {
      outcome.checkpoint_step = found->step;
      if (sink != nullptr) {
        sink->metrics.add("checkpoint.loads");
      }
    }
  }

  const WalReadResult wal = read_wal(wal_path);
  outcome.torn_wal_tail = wal.torn_tail;
  outcome.wal_bytes_replayed = wal.valid_bytes;
  for (const WalRecord& record : wal.records) {
    // The checkpoint already covers every step <= its own; replaying
    // such records would be harmless (absolute values) but is filtered
    // so skipped_records makes the overlap observable in tests.
    if (record.step <= outcome.checkpoint_step) {
      ++outcome.skipped_records;
      continue;
    }
    if (record.kind == WalRecordKind::kStepCommit) {
      for (const pram::VarWrite& write : record.writes) {
        memory.poke(write.var, write.value);
      }
      outcome.replayed_writes += record.writes.size();
    }
    ++outcome.replayed_records;
    if (sink != nullptr) {
      sink->journal.append(record.step, obs::EventKind::kWalReplay,
                           record.step,
                           static_cast<std::uint32_t>(record.kind),
                           record.writes.size());
      sink->metrics.add("wal.replayed_records");
      sink->metrics.add("wal.replayed_writes", record.writes.size());
    }
  }
  outcome.recovered_step =
      std::max(outcome.checkpoint_step, wal.durable_step);

  // Let redundant schemes repair what the crash interrupted (e.g. a
  // scrub pass that had relocated half a region's copies when the
  // process died) before serving resumes.
  if (scrub_budget > 0) {
    outcome.scrub = memory.scrub(scrub_budget);
  }
  return outcome;
}

}  // namespace pramsim::durability
