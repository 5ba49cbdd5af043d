#include "durability/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>
#include <utility>

#include "durability/crc32.hpp"
#include "pram/snapshot.hpp"
#include "util/assert.hpp"

namespace pramsim::durability {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kCheckpointMagic = 0x50434B50u;  // 'PCKP'
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic,ver,step,len
constexpr std::size_t kTrailerBytes = 4;             // crc32(payload)
/// Streaming buffer size for both directions: large enough that each
/// fwrite/fread moves a big block, small enough to stay cache-resident
/// while the CRC folds it.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".bin";
/// A checkpoint is written under `<final name>.tmp` and renamed into
/// place once complete, so a `ckpt-<step>.bin` is never seen half-written
/// by a later run of this code.
constexpr std::string_view kTempSuffix = ".tmp";

using Header = std::array<std::uint8_t, kHeaderBytes>;

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
void put_field(std::uint8_t* out, std::size_t& offset, T value) {
  std::memcpy(out + offset, &value, sizeof(value));
  offset += sizeof(value);
}

template <typename T>
T get_field(const std::uint8_t* in, std::size_t& offset) {
  T value{};
  std::memcpy(&value, in + offset, sizeof(value));
  offset += sizeof(value);
  return value;
}

[[nodiscard]] Header encode_header(std::uint64_t step,
                                   std::uint64_t payload_len) {
  Header header{};
  std::size_t offset = 0;
  put_field(header.data(), offset, kCheckpointMagic);
  put_field(header.data(), offset, kCheckpointVersion);
  put_field(header.data(), offset, step);
  put_field(header.data(), offset, payload_len);
  return header;
}

void write_all(std::FILE* file, const void* data, std::size_t size) {
  PRAMSIM_ASSERT(std::fwrite(data, 1, size, file) == size);
}

/// Snapshot sink that streams the payload to `file` through one fixed
/// buffer and folds each block into the payload CRC as it leaves, so the
/// image never exists in memory whole.
class FileSink final : public pram::SnapshotSink {
 public:
  explicit FileSink(std::FILE* file) : file_(file), buffer_(kChunkBytes) {}

  void write(const void* data, std::size_t size) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    if (fill_ + size > buffer_.size()) {
      drain();
      if (size >= buffer_.size()) {  // a large span skips the copy
        emit(bytes, size);
        return;
      }
    }
    std::memcpy(buffer_.data() + fill_, bytes, size);
    fill_ += size;
  }

  /// Write out whatever is still buffered.
  void drain() {
    emit(buffer_.data(), fill_);
    fill_ = 0;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint32_t crc() const { return crc_.value(); }

 private:
  void emit(const std::uint8_t* data, std::size_t size) {
    crc_.update(data, size);
    write_all(file_, data, size);
    bytes_ += size;
  }

  std::FILE* file_;
  std::vector<std::uint8_t> buffer_;
  std::size_t fill_ = 0;
  std::uint64_t bytes_ = 0;
  Crc32 crc_;
};

/// Snapshot source over the next `limit` bytes of `file`, read in
/// fixed blocks.
class FileSource final : public pram::SnapshotSource {
 public:
  FileSource(std::FILE* file, std::uint64_t limit)
      : file_(file), left_(limit), buffer_(kChunkBytes) {}

  [[nodiscard]] bool read(void* data, std::size_t size) override {
    auto* out = static_cast<std::uint8_t*>(data);
    while (size > 0) {
      if (pos_ == end_ && !refill()) {
        return false;
      }
      const std::size_t n = std::min(size, end_ - pos_);
      std::memcpy(out, buffer_.data() + pos_, n);
      pos_ += n;
      out += n;
      size -= n;
    }
    return true;
  }

  [[nodiscard]] bool exhausted() const { return left_ == 0 && pos_ == end_; }

 private:
  bool refill() {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(left_, buffer_.size()));
    const std::size_t got =
        want == 0 ? 0 : std::fread(buffer_.data(), 1, want, file_);
    left_ -= got;
    pos_ = 0;
    end_ = got;
    return got > 0;
  }

  std::FILE* file_;
  std::uint64_t left_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

struct FrameInfo {
  std::uint64_t step = 0;
  std::uint64_t payload_len = 0;
};

/// Validate the checkpoint in `file` end to end (header, length, CRC),
/// reading it in fixed blocks. A torn file fails on a short read
/// wherever it ends, so a hostile length can never index past the data.
[[nodiscard]] std::optional<FrameInfo> validate_file(std::FILE* file) {
  Header header{};
  if (std::fread(header.data(), 1, header.size(), file) != header.size()) {
    return std::nullopt;
  }
  std::size_t offset = 0;
  const auto magic = get_field<std::uint32_t>(header.data(), offset);
  const auto version = get_field<std::uint32_t>(header.data(), offset);
  FrameInfo info;
  info.step = get_field<std::uint64_t>(header.data(), offset);
  info.payload_len = get_field<std::uint64_t>(header.data(), offset);
  if (magic != kCheckpointMagic || version != kCheckpointVersion) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> block(kChunkBytes);
  Crc32 crc;
  for (std::uint64_t left = info.payload_len; left > 0;) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, block.size()));
    if (std::fread(block.data(), 1, want, file) != want) {
      return std::nullopt;  // torn mid-payload
    }
    crc.update(block.data(), want);
    left -= want;
  }
  std::uint32_t stored = 0;
  if (std::fread(&stored, 1, kTrailerBytes, file) != kTrailerBytes ||
      stored != crc.value()) {
    return std::nullopt;  // torn mid-trailer, or corrupt
  }
  return info;
}

/// Parse `ckpt-<step>.bin`; nullopt for any other filename.
[[nodiscard]] std::optional<std::uint64_t> step_of(std::string_view name) {
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      !name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  const char* first = name.data() + kPrefix.size();
  const char* last = name.data() + name.size() - kSuffix.size();
  std::uint64_t step = 0;
  const auto [ptr, ec] = std::from_chars(first, last, step);
  if (ec != std::errc() || ptr != last) {
    return std::nullopt;
  }
  return step;
}

}  // namespace

Checkpointer::Checkpointer(CheckpointConfig config, obs::Sink* sink)
    : config_(std::move(config)), obs_(sink) {
  PRAMSIM_ASSERT(config_.keep >= 1);
  fs::create_directories(config_.directory);
}

std::vector<std::uint8_t> Checkpointer::file_image(
    pram::MemorySystem& memory, std::uint64_t step) {
  pram::BufferSink sink;
  memory.snapshot(sink);
  const std::vector<std::uint8_t>& payload = sink.bytes();
  const Header header = encode_header(step, payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());

  std::vector<std::uint8_t> image(kHeaderBytes + payload.size() +
                                  kTrailerBytes);
  std::memcpy(image.data(), header.data(), kHeaderBytes);
  std::memcpy(image.data() + kHeaderBytes, payload.data(), payload.size());
  std::memcpy(image.data() + kHeaderBytes + payload.size(), &crc,
              kTrailerBytes);
  return image;
}

std::string Checkpointer::path_for(const std::string& directory,
                                   std::uint64_t step) {
  return (fs::path(directory) / ("ckpt-" + std::to_string(step) + ".bin"))
      .string();
}

std::uint64_t Checkpointer::write(pram::MemorySystem& memory,
                                  std::uint64_t step) {
  if (obs_ != nullptr) {
    obs_->journal.append(step, obs::EventKind::kCheckpointBegin, step, 0,
                         written_);
  }
  const std::string path = path_for(config_.directory, step);
  const std::string temp = path + std::string(kTempSuffix);
  std::uint64_t bytes = 0;
  {
    const File file(std::fopen(temp.c_str(), "wb"));
    PRAMSIM_ASSERT(file != nullptr);
    // One pass over the state: the payload length is known only once the
    // snapshot ends, so the header's bytes are reserved up front and
    // filled in by seeking back.
    const Header placeholder{};
    write_all(file.get(), placeholder.data(), placeholder.size());
    FileSink sink(file.get());
    memory.snapshot(sink);
    sink.drain();
    const std::uint32_t crc = sink.crc();
    write_all(file.get(), &crc, kTrailerBytes);
    const Header header = encode_header(step, sink.bytes());
    PRAMSIM_ASSERT(std::fseek(file.get(), 0, SEEK_SET) == 0);
    write_all(file.get(), header.data(), header.size());
    PRAMSIM_ASSERT(std::fflush(file.get()) == 0);
    bytes = kHeaderBytes + sink.bytes() + kTrailerBytes;
  }
  fs::rename(temp, path);

  ++written_;
  last_step_ = step;
  last_bytes_ = bytes;
  if (obs_ != nullptr) {
    obs_->journal.append(step, obs::EventKind::kCheckpointEnd, step, 0,
                         bytes);
    obs_->metrics.add("checkpoint.writes");
    obs_->metrics.add("checkpoint.bytes", bytes);
  }

  // Retention: keep the newest `keep` checkpoints by step number, and
  // drop temp files a crashed write left behind.
  std::vector<std::uint64_t> steps;
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(config_.directory)) {
    const std::string name = entry.path().filename().string();
    if (const auto s = step_of(name)) {
      steps.push_back(*s);
    } else if (name.starts_with(kPrefix) && name.ends_with(kTempSuffix)) {
      stale.push_back(entry.path());
    }
  }
  for (const fs::path& file : stale) {
    fs::remove(file);
  }
  std::sort(steps.begin(), steps.end());
  while (steps.size() > config_.keep) {
    fs::remove(path_for(config_.directory, steps.front()));
    steps.erase(steps.begin());
  }
  return bytes;
}

std::optional<Checkpointer::Found> Checkpointer::latest(
    const std::string& directory) {
  if (!fs::is_directory(directory)) {
    return std::nullopt;
  }
  std::vector<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (const auto s = step_of(entry.path().filename().string())) {
      steps.push_back(*s);
    }
  }
  // Newest first; the first file that validates wins (a torn newest
  // checkpoint falls back to its predecessor).
  std::sort(steps.rbegin(), steps.rend());
  for (const std::uint64_t step : steps) {
    std::string path = path_for(directory, step);
    const File file(std::fopen(path.c_str(), "rb"));
    if (file == nullptr) {
      continue;
    }
    const auto info = validate_file(file.get());
    if (info && info->step == step) {
      return Found{std::move(path), step};
    }
  }
  return std::nullopt;
}

bool Checkpointer::load(const std::string& path,
                        pram::MemorySystem& memory) {
  const File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return false;
  }
  // Validate the whole file before restore sees a byte of it, then
  // stream the payload a second time into the restore.
  const auto info = validate_file(file.get());
  if (!info || std::fseek(file.get(), kHeaderBytes, SEEK_SET) != 0) {
    return false;
  }
  FileSource source(file.get(), info->payload_len);
  return memory.restore(source) && source.exhausted();
}

}  // namespace pramsim::durability
