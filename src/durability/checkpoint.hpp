// durability::Checkpointer — periodic full-state snapshots of a
// pram::MemorySystem, written through the scheme-agnostic
// snapshot()/restore() surface so every SchemeKind (and every wrapper
// stack: faults over cache over scheme) checkpoints unmodified.
//
// Checkpoint file layout (host-endian, machine-local):
//
//   u32 magic 'PCKP', u32 version, u64 step, u64 payload_len,
//   payload (the MemorySystem snapshot frame), u32 crc32(payload)
//
// Files are named `ckpt-<step>.bin` in the configured directory; the
// newest `keep` checkpoints are retained. write() streams the snapshot
// to `ckpt-<step>.bin.tmp` in one pass through a fixed 1 MiB buffer —
// the CRC (durability/crc32.hpp) folds each block as it leaves, and the
// header's payload length is filled in by seeking back — then renames
// the file into place. It never holds the whole image in memory; the
// bytes on disk equal file_image(). latest() returns the newest file
// that VALIDATES end to end (header, length, CRC), read in 1 MiB
// blocks, so a checkpoint torn mid-write falls back to its predecessor
// — the crash matrix's kMidCheckpoint case.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "pram/memory_system.hpp"

namespace pramsim::durability {

struct CheckpointConfig {
  std::string directory;
  std::uint32_t keep = 2;  ///< retained checkpoint files (>= 1)
};

class Checkpointer {
 public:
  explicit Checkpointer(CheckpointConfig config, obs::Sink* sink = nullptr);

  /// Serialize `memory` as of committed step `step`, streaming it to a
  /// temp file that is flushed (fflush, no fsync) and renamed into
  /// place, then prune to the retention bound and remove temp files a
  /// crashed write left behind. Journals
  /// kCheckpointBegin/kCheckpointEnd and bumps checkpoint.* counters.
  /// Returns the serialized byte count.
  std::uint64_t write(pram::MemorySystem& memory, std::uint64_t step);

  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return written_;
  }
  [[nodiscard]] std::uint64_t last_step() const { return last_step_; }
  [[nodiscard]] std::uint64_t last_bytes() const { return last_bytes_; }

  /// The complete on-disk image (header + payload + CRC) for `memory`
  /// at `step`, built in memory — byte-identical to the file write()
  /// streams. The crash matrix writes torn PREFIXES of this image to
  /// simulate a checkpoint interrupted mid-write.
  [[nodiscard]] static std::vector<std::uint8_t> file_image(
      pram::MemorySystem& memory, std::uint64_t step);

  [[nodiscard]] static std::string path_for(const std::string& directory,
                                            std::uint64_t step);

  struct Found {
    std::string path;
    std::uint64_t step = 0;
  };
  /// Newest checkpoint in `directory` that validates end to end; a torn
  /// or corrupt newest file falls back to the next-newest valid one.
  [[nodiscard]] static std::optional<Found> latest(
      const std::string& directory);

  /// Validate `path` end to end, then stream its payload into
  /// `memory` (freshly constructed, same configuration); restore never
  /// sees an unvalidated byte. False on any validation or
  /// restore failure; `memory` may be partially written then and must
  /// be discarded.
  [[nodiscard]] static bool load(const std::string& path,
                                 pram::MemorySystem& memory);

 private:
  CheckpointConfig config_;
  obs::Sink* obs_ = nullptr;
  std::uint64_t written_ = 0;
  std::uint64_t last_step_ = 0;
  std::uint64_t last_bytes_ = 0;
};

}  // namespace pramsim::durability
