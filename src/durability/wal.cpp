#include "durability/wal.hpp"

#include <cstring>
#include <optional>

#include "durability/crc32.hpp"
#include "util/assert.hpp"

namespace pramsim::durability {

namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc

void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  put_bytes(out, &value, sizeof(value));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  put_bytes(out, &value, sizeof(value));
}

void put_word(std::vector<std::uint8_t>& out, pram::Word value) {
  put_bytes(out, &value, sizeof(value));
}

/// One complete, CRC-valid frame whose payload holds a whole record of a
/// known kind: the unit read_wal decodes and truncate_through keeps.
struct Frame {
  WalRecordKind kind = WalRecordKind::kStepCommit;
  std::uint64_t step = 0;
  std::uint32_t count = 0;  ///< kStepCommit: (var, value) pairs in body
  const std::uint8_t* body = nullptr;  ///< the kind's fields after these
  std::size_t size = 0;                ///< frame bytes, header included
};

/// One (u64 var, value) pair of a kStepCommit body.
constexpr std::size_t kWriteBytes =
    sizeof(std::uint64_t) + sizeof(pram::Word);

/// The frame at `offset` of `log`, or nullopt where the log stops being
/// readable: a short header or payload (a torn write), a CRC mismatch, an
/// unknown kind, or a payload shorter than its kind's fields. Bytes past
/// those fields are allowed and ignored.
[[nodiscard]] std::optional<Frame> parse_frame(
    std::span<const std::uint8_t> log, std::size_t offset) {
  const std::size_t left = log.size() - offset;
  if (left < kFrameHeaderBytes) {
    return std::nullopt;
  }
  const std::uint8_t* at = log.data() + offset;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  std::memcpy(&length, at, sizeof(length));
  std::memcpy(&crc, at + sizeof(length), sizeof(crc));
  if (left - kFrameHeaderBytes < length) {
    return std::nullopt;
  }
  const std::uint8_t* payload = at + kFrameHeaderBytes;
  if (crc32(payload, length) != crc) {
    return std::nullopt;
  }
  Frame frame;
  constexpr std::size_t kFixed = 1 + sizeof(frame.step);  // kind, step
  if (length < kFixed) {
    return std::nullopt;
  }
  std::memcpy(&frame.step, payload + 1, sizeof(frame.step));
  frame.body = payload + kFixed;
  std::size_t body_left = length - kFixed;
  std::size_t need = 0;
  switch (static_cast<WalRecordKind>(payload[0])) {
    case WalRecordKind::kStepCommit:
      if (body_left < sizeof(frame.count)) {
        return std::nullopt;
      }
      std::memcpy(&frame.count, frame.body, sizeof(frame.count));
      frame.body += sizeof(frame.count);
      body_left -= sizeof(frame.count);
      need = std::size_t{frame.count} * kWriteBytes;
      break;
    case WalRecordKind::kFaultOnset:
      need = sizeof(std::uint32_t);
      break;
    default:
      return std::nullopt;  // unknown kind: corruption, stop here
  }
  if (body_left < need) {
    return std::nullopt;
  }
  frame.kind = static_cast<WalRecordKind>(payload[0]);
  frame.size = kFrameHeaderBytes + length;
  return frame;
}

/// Every byte of the file at `path`; nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_file(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(file);
  return bytes;
}

}  // namespace

const char* to_string(WalRecordKind kind) {
  switch (kind) {
    case WalRecordKind::kStepCommit:
      return "step_commit";
    case WalRecordKind::kFaultOnset:
      return "fault_onset";
  }
  return "unknown";
}

Wal::Wal(WalConfig config, obs::Sink* sink)
    : config_(std::move(config)), obs_(sink) {
  PRAMSIM_ASSERT(config_.flush_interval >= 1);
  file_ = std::fopen(config_.path.c_str(), "wb");
  PRAMSIM_ASSERT(file_ != nullptr);
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fclose(file_);  // buffered tail intentionally lost (crash model)
  }
}

void Wal::frame_record(std::span<const std::uint8_t> payload) {
  const std::uint32_t length =
      static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  last_record_.offset = file_bytes_ + buffer_.size();
  last_record_.length = kFrameHeaderBytes + payload.size();
  put_u32(buffer_, length);
  put_u32(buffer_, crc);
  put_bytes(buffer_, payload.data(), payload.size());
  ++appended_records_;
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.records");
  }
}

void Wal::append_step(std::uint64_t step,
                      std::span<const pram::VarWrite> writes) {
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(WalRecordKind::kStepCommit));
  put_u64(payload_, step);
  put_u32(payload_, static_cast<std::uint32_t>(writes.size()));
  for (const auto& write : writes) {
    put_u64(payload_, write.var.index());
    put_word(payload_, write.value);
  }
  frame_record(payload_);
  buffered_commit_step_ = step;
}

void Wal::append_onset(std::uint64_t step, std::uint32_t module) {
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(WalRecordKind::kFaultOnset));
  put_u64(payload_, step);
  put_u32(payload_, module);
  frame_record(payload_);
}

void Wal::maybe_flush(std::uint64_t step) {
  if (step % config_.flush_interval == 0) {
    flush();
  }
}

void Wal::flush() {
  if (buffer_.empty()) {
    return;
  }
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  PRAMSIM_ASSERT(written == buffer_.size());
  PRAMSIM_ASSERT(std::fflush(file_) == 0);
  file_bytes_ += buffer_.size();
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.flushes");
    obs_->metrics.add("wal.flushed_bytes", buffer_.size());
  }
  buffer_.clear();
  durable_step_ = buffered_commit_step_;
}

void Wal::truncate_through(std::uint64_t through_step) {
  flush();
  std::fclose(file_);
  file_ = nullptr;
  const std::vector<std::uint8_t> old =
      read_file(config_.path).value_or(std::vector<std::uint8_t>{});
  file_ = std::fopen(config_.path.c_str(), "wb");
  PRAMSIM_ASSERT(file_ != nullptr);
  // Keep each surviving frame as it was on disk, up to where read_wal
  // would stop. last_record_ follows the kept frames and is empty when
  // none survives; durable_step_ is unchanged (the checkpoint now covers
  // the dropped prefix).
  last_record_ = {};
  std::size_t offset = 0;
  while (const auto frame = parse_frame(old, offset)) {
    if (frame->step > through_step) {
      last_record_.offset = buffer_.size();
      last_record_.length = frame->size;
      buffer_.insert(buffer_.end(), old.begin() + offset,
                     old.begin() + offset + frame->size);
    }
    offset += frame->size;
  }
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  PRAMSIM_ASSERT(written == buffer_.size());
  PRAMSIM_ASSERT(std::fflush(file_) == 0);
  file_bytes_ = buffer_.size();
  buffer_.clear();
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.truncations");
  }
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  const auto bytes = read_file(path);
  if (!bytes) {
    return result;  // no log yet: empty, untorn
  }
  std::size_t offset = 0;
  while (const auto frame = parse_frame(*bytes, offset)) {
    WalRecord record;
    record.kind = frame->kind;
    record.step = frame->step;
    switch (frame->kind) {
      case WalRecordKind::kStepCommit:
        record.writes.reserve(frame->count);
        for (std::uint32_t i = 0; i < frame->count; ++i) {
          std::uint64_t var = 0;
          pram::Word value = 0;
          const std::uint8_t* pair = frame->body + i * kWriteBytes;
          std::memcpy(&var, pair, sizeof(var));
          std::memcpy(&value, pair + sizeof(var), sizeof(value));
          record.writes.push_back(
              {VarId(static_cast<std::uint32_t>(var)), value});
        }
        result.durable_step = record.step;
        break;
      case WalRecordKind::kFaultOnset:
        std::memcpy(&record.module, frame->body, sizeof(record.module));
        break;
    }
    offset += frame->size;
    result.records.push_back(std::move(record));
  }
  result.valid_bytes = offset;
  result.torn_tail = offset < bytes->size();
  return result;
}

}  // namespace pramsim::durability
