// durability::Wal — the write-ahead log: an append-only, CRC-framed
// record stream of committed plan steps (step stamp + the step's
// combined (var, value) writes) and fault-onset acknowledgements.
//
// Group commit: appends encode into an in-memory buffer; flush() makes
// the buffered records DURABLE (fwrite + fflush) in one batch. The
// driver flushes every `wal_flush_interval` steps, so "committed" and
// "durable" are distinct horizons — a crash loses at most the unflushed
// tail, never a flushed record. Destroying a Wal WITHOUT flushing drops
// the buffered tail on the floor: that is exactly the crash the
// kill-point matrix simulates, so the destructor must never flush.
//
// On-disk record frame (host-endian; the WAL is machine-local recovery
// state, not an interchange format):
//
//   [u32 payload length][u32 crc32(payload)][payload]
//   payload = u8 kind, u64 step, kind-specific body:
//     kStepCommit  u32 count, count x (u64 var, i64 value)
//     kFaultOnset  u32 module
//   (kind 2 is unassigned: the reader rejects it like any unknown kind)
//
// The reader (read_wal) stops at the first frame that fails the length
// or CRC check — a torn final record truncates cleanly to the last
// complete record, never poisons replay. truncate_through(step) is the
// checkpoint protocol's log-trim: rewrite the file keeping only records
// newer than the checkpoint, each frame copied as it was on disk, up to
// where read_wal stops (one frame parser serves both). See
// docs/durability.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "pram/types.hpp"

namespace pramsim::durability {

enum class WalRecordKind : std::uint8_t {
  kStepCommit = 1,
  kFaultOnset = 3,
};

[[nodiscard]] const char* to_string(WalRecordKind kind);

/// One decoded WAL record (reader side).
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kStepCommit;
  std::uint64_t step = 0;
  std::vector<pram::VarWrite> writes;  ///< kStepCommit payload
  std::uint32_t module = 0;            ///< kFaultOnset payload
};

struct WalConfig {
  std::string path;
  /// Group-commit cadence honored by maybe_flush(): durable flush every
  /// N appended commit steps (>= 1; 1 = flush-per-step).
  std::uint32_t flush_interval = 1;
};

class Wal {
 public:
  /// Opens `config.path` for writing, TRUNCATING any previous log (a
  /// fresh run owns its directory; recovery reads the old log before
  /// constructing a new Wal). `sink` is optional wal.* telemetry.
  explicit Wal(WalConfig config, obs::Sink* sink = nullptr);

  /// Closes the file WITHOUT flushing the buffered tail — an unflushed
  /// append is exactly what a crash loses. Callers that mean a clean
  /// shutdown call flush() first.
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  void append_step(std::uint64_t step,
                   std::span<const pram::VarWrite> writes);
  void append_onset(std::uint64_t step, std::uint32_t module);

  /// Honor the group-commit cadence after appending commit step `step`:
  /// flush when step % flush_interval == 0.
  void maybe_flush(std::uint64_t step);

  /// Make every buffered record durable (fwrite + fflush).
  void flush();

  /// The checkpoint/truncate protocol: drop every record with
  /// step <= `through_step`, rewriting the file with the surviving
  /// tail. Flushes first; call only after the covering checkpoint is
  /// durable, or a crash between the two loses the dropped records.
  void truncate_through(std::uint64_t through_step);

  /// Last step covered by a DURABLE (flushed) kStepCommit record.
  [[nodiscard]] std::uint64_t durable_step() const { return durable_step_; }
  [[nodiscard]] std::uint64_t appended_records() const {
    return appended_records_;
  }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }
  [[nodiscard]] const std::string& path() const { return config_.path; }

  /// Byte span of the most recently appended record, relative to the
  /// file start; {0, 0} after a truncation that keeps no record. Valid
  /// once that record is flushed — the crash matrix tears the file
  /// inside this span to simulate a partial final write.
  struct RecordSpan {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  [[nodiscard]] RecordSpan last_record() const { return last_record_; }

 private:
  /// Frame `payload` into the append buffer and account the record.
  void frame_record(std::span<const std::uint8_t> payload);

  WalConfig config_;
  obs::Sink* obs_ = nullptr;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buffer_;    ///< encoded, not yet durable
  std::vector<std::uint8_t> payload_;   ///< per-record encode scratch
  std::uint64_t file_bytes_ = 0;        ///< durable bytes on disk
  std::uint64_t appended_records_ = 0;
  std::uint64_t buffered_commit_step_ = 0;  ///< newest buffered commit
  std::uint64_t durable_step_ = 0;
  RecordSpan last_record_{};
};

/// Decoded log + tail diagnosis (recovery side).
struct WalReadResult {
  std::vector<WalRecord> records;  ///< every complete, CRC-valid record
  /// Bytes remained after the last valid record (torn final write or
  /// corruption) — recovery proceeds from the valid prefix.
  bool torn_tail = false;
  std::uint64_t valid_bytes = 0;
  /// Step of the last valid kStepCommit record (0 = none).
  std::uint64_t durable_step = 0;
};

/// Parse `path`, stopping cleanly at the first incomplete or CRC-invalid
/// frame. A missing file reads as an empty, untorn log.
[[nodiscard]] WalReadResult read_wal(const std::string& path);

}  // namespace pramsim::durability
