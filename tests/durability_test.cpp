// The durability subsystem's acceptance gate: WAL framing and group
// commit, torn-record tolerance at EVERY byte offset, checkpoint
// round-trips with torn-file fallback, restart recovery — and the
// deterministic kill-point crash matrix: schemes x kill points x seeds,
// each run killed at a seed-derived step, restarted from disk, and
// verified bit-for-bit against an uninterrupted reference run with zero
// lost committed-and-durable writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/checkpoint.hpp"
#include "durability/crc32.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "faults/fault_model.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/sink.hpp"
#include "pram/memory_system.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "pram/snapshot.hpp"

namespace pramsim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("durability_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ----- WAL unit tests ------------------------------------------------------

TEST(Wal, RoundTripsEveryRecordKind) {
  const std::string dir = scratch_dir("wal_roundtrip");
  const std::string path = dir + "/wal.log";
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(7), 70}, {VarId(9), -90}};
    wal.append_step(1, w1);
    wal.append_onset(2, 5);
    const std::vector<pram::VarWrite> w2 = {{VarId(3), 33}};
    wal.append_step(2, w2);
    wal.append_relocation(3, 12);
    wal.flush();
    EXPECT_EQ(wal.appended_records(), 4u);
    EXPECT_EQ(wal.durable_step(), 2u);
    EXPECT_GT(wal.file_bytes(), 0u);
  }
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 2u);
  ASSERT_EQ(log.records.size(), 4u);

  EXPECT_EQ(log.records[0].kind, durability::WalRecordKind::kStepCommit);
  EXPECT_EQ(log.records[0].step, 1u);
  ASSERT_EQ(log.records[0].writes.size(), 2u);
  EXPECT_EQ(log.records[0].writes[0].var, VarId(7));
  EXPECT_EQ(log.records[0].writes[0].value, 70);
  EXPECT_EQ(log.records[0].writes[1].value, -90);

  EXPECT_EQ(log.records[1].kind, durability::WalRecordKind::kFaultOnset);
  EXPECT_EQ(log.records[1].step, 2u);
  EXPECT_EQ(log.records[1].module, 5u);

  EXPECT_EQ(log.records[2].kind, durability::WalRecordKind::kStepCommit);
  ASSERT_EQ(log.records[2].writes.size(), 1u);
  EXPECT_EQ(log.records[2].writes[0].value, 33);

  EXPECT_EQ(log.records[3].kind,
            durability::WalRecordKind::kScrubRelocation);
  EXPECT_EQ(log.records[3].step, 3u);
  EXPECT_EQ(log.records[3].relocated, 12u);
}

TEST(Wal, MissingFileReadsAsEmptyUntornLog) {
  const auto log = durability::read_wal(scratch_dir("wal_none") + "/no.log");
  EXPECT_TRUE(log.records.empty());
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 0u);
}

// Group commit: the destructor does NOT flush, so a crash loses exactly
// the records appended since the last group-commit boundary — no more.
TEST(Wal, GroupCommitCrashLosesOnlyTheUnflushedTail) {
  const std::string dir = scratch_dir("wal_group");
  const std::string path = dir + "/wal.log";
  {
    durability::Wal wal({path, /*flush_interval=*/4});
    for (std::uint64_t step = 1; step <= 6; ++step) {
      const std::vector<pram::VarWrite> writes = {
          {VarId(static_cast<std::uint32_t>(step)),
           static_cast<pram::Word>(step * 10)}};
      wal.append_step(step, writes);
      wal.maybe_flush(step);
    }
    EXPECT_EQ(wal.durable_step(), 4u);  // flush fired at step 4 only
  }  // crash: steps 5 and 6 were buffered, never durable
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.durable_step, 4u);
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records.back().step, 4u);
}

// The torn-final-record sweep: cut the file at EVERY byte offset inside
// the last record's span. Each cut must parse cleanly back to the last
// complete record — never a crash, never garbage replay.
TEST(Wal, TornFinalRecordRecoversToLastCompleteRecordAtEveryOffset) {
  const std::string dir = scratch_dir("wal_torn");
  const std::string path = dir + "/wal.log";
  durability::Wal::RecordSpan span;
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(1), 11}, {VarId(2), 22}};
    wal.append_step(1, w1);
    const std::vector<pram::VarWrite> w2 = {{VarId(3), 33}};
    wal.append_step(2, w2);
    const std::vector<pram::VarWrite> w3 = {{VarId(4), 44}, {VarId(5), 55}};
    wal.append_step(3, w3);
    wal.flush();
    span = wal.last_record();
  }
  const auto full = durability::read_wal(path);
  ASSERT_EQ(full.records.size(), 3u);
  ASSERT_FALSE(full.torn_tail);
  ASSERT_GT(span.length, 0u);

  const std::string torn = dir + "/torn.log";
  for (std::uint64_t cut = span.offset; cut < span.offset + span.length;
       ++cut) {
    fs::copy_file(path, torn, fs::copy_options::overwrite_existing);
    fs::resize_file(torn, cut);
    const auto log = durability::read_wal(torn);
    ASSERT_EQ(log.records.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(log.durable_step, 2u) << "cut at byte " << cut;
    EXPECT_EQ(log.valid_bytes, span.offset) << "cut at byte " << cut;
    // Cutting exactly at the record boundary is a CLEAN two-record log;
    // any cut inside the final record is a detected torn tail.
    EXPECT_EQ(log.torn_tail, cut != span.offset) << "cut at byte " << cut;
  }
}

// Bit rot (not truncation): flipping any payload byte of the final
// record fails its CRC, and the reader stops at the last valid record.
TEST(Wal, CorruptFinalRecordIsRejectedByCrc) {
  const std::string dir = scratch_dir("wal_corrupt");
  const std::string path = dir + "/wal.log";
  durability::Wal::RecordSpan span;
  {
    durability::Wal wal({path, 1});
    const std::vector<pram::VarWrite> w1 = {{VarId(1), 11}};
    wal.append_step(1, w1);
    const std::vector<pram::VarWrite> w2 = {{VarId(2), 22}};
    wal.append_step(2, w2);
    wal.flush();
    span = wal.last_record();
  }
  // Flip one byte inside the final record's payload.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  const long pos = static_cast<long>(span.offset + span.length - 3);
  ASSERT_EQ(std::fseek(file, pos, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, pos, SEEK_SET), 0);
  std::fputc(byte ^ 0xFF, file);
  std::fclose(file);

  const auto log = durability::read_wal(path);
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.durable_step, 1u);
}

TEST(Wal, TruncateThroughDropsOnlyCoveredRecords) {
  const std::string dir = scratch_dir("wal_trunc");
  const std::string path = dir + "/wal.log";
  durability::Wal wal({path, 1});
  for (std::uint64_t step = 1; step <= 6; ++step) {
    const std::vector<pram::VarWrite> writes = {
        {VarId(static_cast<std::uint32_t>(step)),
         static_cast<pram::Word>(step)}};
    wal.append_step(step, writes);
  }
  wal.truncate_through(4);
  const auto log = durability::read_wal(path);
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].step, 5u);
  EXPECT_EQ(log.records[1].step, 6u);
  EXPECT_EQ(log.durable_step, 6u);
}

// ----- checkpoint unit tests -----------------------------------------------

TEST(Checkpoint, RoundTripRestoresStateAndStepClock) {
  const std::string dir = scratch_dir("ckpt_roundtrip");
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  auto memory = core::make_memory(spec);
  const std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  for (std::uint64_t step = 1; step <= 5; ++step) {
    const std::vector<pram::VarWrite> writes = {
        {VarId(static_cast<std::uint32_t>(step * 7)),
         static_cast<pram::Word>(step * 100)}};
    memory->step(no_reads, no_values, writes);
  }

  durability::Checkpointer checkpointer({dir, 2});
  const std::uint64_t bytes = checkpointer.write(*memory, 5);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(checkpointer.last_step(), 5u);

  const auto found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 5u);

  auto restored = core::make_memory(spec);
  ASSERT_TRUE(durability::Checkpointer::load(found->path, *restored));
  EXPECT_EQ(restored->steps_served(), 5u);
  for (std::uint64_t v = 0; v < memory->size(); ++v) {
    const VarId var(static_cast<std::uint32_t>(v));
    ASSERT_EQ(restored->peek(var), memory->peek(var)) << "var " << v;
  }
}

TEST(Checkpoint, TornNewestFileFallsBackToPreviousValidOne) {
  const std::string dir = scratch_dir("ckpt_torn");
  const core::SchemeSpec spec{.kind = core::SchemeKind::kDmmpc,
                              .n = 16,
                              .seed = 3};
  auto memory = core::make_memory(spec);
  memory->poke(VarId(1), 111);

  durability::Checkpointer checkpointer({dir, 4});
  checkpointer.write(*memory, 4);
  memory->poke(VarId(2), 222);

  // A checkpoint at step 8 torn at several representative prefixes: each
  // must be rejected and latest() must fall back to step 4.
  const auto image = durability::Checkpointer::file_image(*memory, 8);
  const std::string torn_path = durability::Checkpointer::path_for(dir, 8);
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{12}, std::size_t{25},
        image.size() / 2, image.size() - 1}) {
    ASSERT_LT(cut, image.size());
    std::FILE* file = std::fopen(torn_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, cut, file), cut);
    std::fclose(file);

    const auto found = durability::Checkpointer::latest(dir);
    ASSERT_TRUE(found.has_value()) << "cut " << cut;
    EXPECT_EQ(found->step, 4u) << "cut " << cut;
  }

  // The COMPLETE image validates and wins.
  std::FILE* file = std::fopen(torn_path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), file), image.size());
  std::fclose(file);
  const auto found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 8u);
}

// ----- CRC-32 and the streamed checkpoint file --------------------------

/// The classic byte-at-a-time CRC-32, as an independent oracle for the
/// sliced implementation.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::vector<std::uint8_t> bytes(fs::file_size(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  if (file != nullptr) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }
  return bytes;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(durability::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(durability::crc32(check, 0), 0u);
}

// Every length and start alignment around the 8-byte stride, and every
// split point of the streaming form, agree with the bytewise oracle.
TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAlignmentAndSplit) {
  std::vector<std::uint8_t> data(300);
  std::uint32_t x = 12345;
  for (auto& byte : data) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; start + len <= 80; ++len) {
      ASSERT_EQ(durability::crc32(data.data() + start, len),
                reference_crc32(data.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
  const std::uint32_t whole = reference_crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    durability::Crc32 crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    ASSERT_EQ(crc.value(), whole) << "split " << split;
  }
}

struct GoldenCheckpoint {
  const char* name;
  /// Builds the freshly constructed instance (the writer's and the
  /// restore target's).
  std::function<std::unique_ptr<pram::MemorySystem>()> make;
  bool faulted;  ///< modules die mid-run, so the scrub pass relocates
  std::uint64_t bytes;
  std::uint32_t crc;  ///< CRC-32 of the whole file
  /// Serve the steps as plans through serve(plan, ctx) instead of step().
  bool served = false;
};

/// A fixed state: 24 steps of 64 writes each, through the step clock,
/// then one scrub pass over the whole memory (a no-op without faults).
std::unique_ptr<pram::MemorySystem> golden_memory(
    const GoldenCheckpoint& golden, pram::ScrubResult& scrubbed) {
  auto memory = golden.make();
  const std::vector<VarId> no_reads;
  std::vector<pram::Word> no_values;
  pram::PlanBuilder builder;
  pram::ServeContext ctx;
  for (std::uint64_t step = 1; step <= 24; ++step) {
    std::vector<pram::VarWrite> writes;
    pram::AccessBatch batch;
    for (std::uint64_t i = 0; i < 64; ++i) {
      writes.push_back(
          {VarId(static_cast<std::uint32_t>((step * 37 + i * 101) %
                                            memory->size())),
           static_cast<pram::Word>(step * 1000 + i)});
      batch.push_back({ProcId(static_cast<std::uint32_t>(i)),
                       pram::AccessOp::kWrite, writes.back().var,
                       writes.back().value});
    }
    if (golden.served) {
      ctx.bind(no_values);
      memory->serve(builder.build(batch, *memory), ctx);
    } else {
      memory->step(no_reads, no_values, writes);
    }
  }
  scrubbed = memory->scrub(memory->size());
  return memory;
}

std::unique_ptr<pram::MemorySystem> golden_scheme(
    core::SchemeKind kind, std::uint32_t region_words = 1) {
  return core::make_memory(
      {.kind = kind, .n = 64, .seed = 3, .region_words = region_words});
}

// The file format is pinned: these sizes and CRCs are those of the files
// the buffered (whole-image) writer produced for the same state, before
// checkpoints streamed, and (for the region-width and faulted rows) those
// the hash-map CopyStore produced before rows moved into pages. The two
// served IDA rows were recorded with the per-block IDA serve path and
// the hash-map share rows, before the step-batched recode and the flat
// rows replaced them. Every
// payload spans several 64 KiB stream blocks. The faulted row carries a
// non-empty relocation overlay: modules die mid-run and the final scrub
// pass re-homes their copies.
TEST(Checkpoint, StreamedFileIsByteIdenticalToTheImageAndTheGoldenFile) {
  const std::string dir = scratch_dir("ckpt_golden");
  const auto faulted_dmmpc = [] {
    return std::make_unique<faults::FaultableMemory>(
        golden_scheme(core::SchemeKind::kDmmpc),
        faults::FaultSpec{.seed = 41,
                          .module_kill_rate = 0.1,
                          .onset_min = 4,
                          .onset_max = 16});
  };
  const auto faulted_ida = [] {
    return std::make_unique<faults::FaultableMemory>(
        golden_scheme(core::SchemeKind::kIda),
        faults::FaultSpec{.seed = 41,
                          .module_kill_rate = 0.1,
                          .corruption_rate = 0.05,
                          .onset_min = 4,
                          .onset_max = 16});
  };
  const GoldenCheckpoint table[] = {
      {"dmmpc",
       [] { return golden_scheme(core::SchemeKind::kDmmpc); }, false,
       184412, 0x33ba2b1eu},
      {"ida", [] { return golden_scheme(core::SchemeKind::kIda); }, false,
       74812, 0x507eaf2eu},
      {"dmmpc_w8",
       [] { return golden_scheme(core::SchemeKind::kDmmpc, 8); }, false,
       462940, 0x755998fdu},
      {"dmmpc_faulted_scrubbed", faulted_dmmpc, true, 245596, 0xf04877c7u},
      {"ida_w64_served",
       [] { return golden_scheme(core::SchemeKind::kIda, 64); }, false,
       67452, 0x1c92a380u, true},
      {"ida_faulted_scrubbed_served", faulted_ida, true, 110016, 0x1304645du,
       true},
  };
  for (const GoldenCheckpoint& golden : table) {
    SCOPED_TRACE(golden.name);
    pram::ScrubResult scrubbed;
    auto memory = golden_memory(golden, scrubbed);
    EXPECT_EQ(scrubbed.relocated > 0, golden.faulted);
    durability::Checkpointer checkpointer({dir, 1});
    EXPECT_EQ(checkpointer.write(*memory, 24), golden.bytes);

    const auto file =
        read_bytes(durability::Checkpointer::path_for(dir, 24));
    EXPECT_EQ(file, durability::Checkpointer::file_image(*memory, 24));
    EXPECT_EQ(file.size(), golden.bytes);
    EXPECT_EQ(durability::crc32(file.data(), file.size()), golden.crc);
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }

    auto restored = golden.make();
    ASSERT_TRUE(durability::Checkpointer::load(
        durability::Checkpointer::path_for(dir, 24), *restored));
    EXPECT_EQ(durability::Checkpointer::file_image(*restored, 24), file);
  }
}

// A crash mid-write leaves only a temp file: latest() never picks it
// up, and the next completed write removes it.
TEST(Checkpoint, TempFilesAreIgnoredAndSweptByTheNextWrite) {
  const std::string dir = scratch_dir("ckpt_temp");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  memory->poke(VarId(1), 111);
  durability::Checkpointer checkpointer({dir, 2});
  checkpointer.write(*memory, 4);

  const auto image = durability::Checkpointer::file_image(*memory, 8);
  const std::string stale =
      durability::Checkpointer::path_for(dir, 8) + ".tmp";
  std::FILE* file = std::fopen(stale.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), file), image.size());
  std::fclose(file);

  auto found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 4u);

  checkpointer.write(*memory, 12);
  EXPECT_FALSE(fs::exists(stale));
  found = durability::Checkpointer::latest(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->step, 12u);
}

// Hostile bytes: a length field near 2^64 must read as a torn file, and
// a flipped payload byte must fail load() before restore touches the
// target (its state stays the freshly constructed one).
TEST(Checkpoint, HostileLengthAndCorruptPayloadAreRejectedBeforeRestore) {
  const std::string dir = scratch_dir("ckpt_hostile");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  memory->poke(VarId(3), 333);
  durability::Checkpointer checkpointer({dir, 4});
  checkpointer.write(*memory, 4);
  const auto good = durability::Checkpointer::file_image(*memory, 8);

  const std::string path = durability::Checkpointer::path_for(dir, 8);
  const auto write_file = [&](const std::vector<std::uint8_t>& bytes) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
    std::fclose(file);
  };

  for (const std::uint64_t length :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 1, ~std::uint64_t{0} - 3,
        std::uint64_t{1} << 40}) {
    auto hostile = good;
    std::memcpy(hostile.data() + 16, &length, sizeof(length));
    write_file(hostile);
    const auto found = durability::Checkpointer::latest(dir);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->step, 4u) << "length " << length;
    auto target = core::make_memory(
        {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
    EXPECT_FALSE(durability::Checkpointer::load(path, *target));
  }

  auto corrupt = good;
  corrupt[24 + 40] ^= 0x01;
  write_file(corrupt);
  auto target = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  EXPECT_FALSE(durability::Checkpointer::load(path, *target));
  EXPECT_EQ(target->steps_served(), 0u);
  EXPECT_EQ(target->peek(VarId(3)), 0);
}

// ----- native restore bodies reject frames no snapshot produces ---------

struct ForgedBody {
  const char* name;
  std::uint64_t n_rows;  ///< the row count the frame claims
  std::vector<std::uint64_t> rows;  ///< row ids, each row zero-filled
  std::vector<std::pair<std::uint64_t, std::uint32_t>> relocations;
  bool accepted;
};

std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes,
                     std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// Hand-built frames for the majority and IDA native bodies: the frame
// header, the body's configuration fields and its trailing cursors come
// from the memory's own fresh snapshot (which holds no rows and no
// relocations); the rows and relocation entries in between are forged.
// Every rejected frame is one that no snapshot body can write: a repeated
// or descending row id or relocation key, more rows than the memory has
// regions, a relocation key past the key space, or a module past the
// module count.
TEST(Restore, NativeBodiesRejectRepeatedDescendingAndOutOfRangeEntries) {
  for (const core::SchemeKind kind :
       {core::SchemeKind::kDmmpc, core::SchemeKind::kIda}) {
    SCOPED_TRACE(core::to_string(kind));
    const core::SchemeSpec spec{.kind = kind, .n = 16, .seed = 3};
    auto fresh = core::make_memory(spec);
    pram::BufferSink blank;
    fresh->snapshot(blank);
    const std::vector<std::uint8_t>& bytes = blank.bytes();
    const std::uint64_t m = fresh->size();
    const std::uint32_t modules = fresh->num_modules();
    // Majority body: r, w, rows...; IDA body: b, d, region_blocks,
    // check_shares, row_words, rows... (both after the 24-byte header).
    const bool ida = kind == core::SchemeKind::kIda;
    std::size_t rows_at = 0;
    std::size_t row_bytes = 0;
    std::uint64_t regions = 0;
    std::uint64_t keys = 0;
    if (ida) {
      const std::uint64_t blocks = (m + u32_at(bytes, 24) - 1) /
                                   u32_at(bytes, 24);
      std::uint64_t row_words = 0;
      std::memcpy(&row_words, bytes.data() + 40, sizeof(row_words));
      rows_at = 48;
      row_bytes = row_words * sizeof(pram::Word);
      regions = (blocks + u32_at(bytes, 32) - 1) / u32_at(bytes, 32);
      keys = blocks * u32_at(bytes, 28);
    } else {
      const std::uint32_t r = u32_at(bytes, 24);
      const std::uint32_t w = u32_at(bytes, 28);
      rows_at = 32;
      row_bytes = std::size_t{r} * w * 2 * sizeof(std::uint64_t);
      regions = (m + w - 1) / w;
      keys = m * r;
    }
    // The fresh body's row count and relocation count are both zero.
    ASSERT_EQ(bytes.size(), rows_at + 16 + 16);

    std::vector<std::uint64_t> every_row_then_a_repeat;
    for (std::uint64_t region = 0; region < regions; ++region) {
      every_row_then_a_repeat.push_back(region);
    }
    every_row_then_a_repeat.push_back(regions - 1);
    const ForgedBody cases[] = {
        {"well_formed", 2, {1, 5}, {{3, 0}, {keys - 1, modules - 1}}, true},
        {"repeated_row", 2, {5, 5}, {}, false},
        {"descending_row", 2, {5, 1}, {}, false},
        {"more_rows_than_regions", regions + 1, every_row_then_a_repeat, {},
         false},
        {"repeated_key", 0, {}, {{3, 0}, {3, 1}}, false},
        {"descending_key", 0, {}, {{7, 0}, {3, 0}}, false},
        {"key_past_key_space", 0, {}, {{keys, 0}}, false},
        {"module_past_modules", 0, {}, {{3, modules}}, false},
    };
    for (const ForgedBody& forged : cases) {
      SCOPED_TRACE(forged.name);
      pram::BufferSink sink;
      sink.write(bytes.data(), rows_at);
      pram::put_u64(sink, forged.n_rows);
      const std::vector<std::uint8_t> zero_row(row_bytes, 0);
      for (const std::uint64_t region : forged.rows) {
        pram::put_u64(sink, region);
        sink.write(zero_row.data(), zero_row.size());
      }
      pram::put_u64(sink, forged.relocations.size());
      for (const auto& [key, module] : forged.relocations) {
        pram::put_u64(sink, key);
        pram::put_u32(sink, module);
      }
      sink.write(bytes.data() + rows_at + 16, 16);

      auto target = core::make_memory(spec);
      pram::BufferSource source(sink.bytes());
      EXPECT_EQ(target->restore(source), forged.accepted);
    }
  }
}

// Hand-built frames for the two sparse (variable, value) images: the
// default body that kHashed and every scheme without a native body use,
// and the oracle image FaultableMemory appends after its inner frame.
// Both writers emit strictly ascending variables, so a repeated or
// descending variable, or a count above m, is a forged frame.
TEST(Restore, SparseBodiesRejectRepeatedDescendingAndOversizedFrames) {
  const core::SchemeSpec spec{
      .kind = core::SchemeKind::kHashed, .n = 16, .seed = 3};
  const auto make_plain = [&] { return core::make_memory(spec); };
  const auto make_faulted = [&]() -> std::unique_ptr<pram::MemorySystem> {
    return std::make_unique<faults::FaultableMemory>(
        core::make_memory(spec), faults::FaultSpec{.seed = 5});
  };
  struct Pair {
    std::uint64_t var;
    pram::Word value;
  };
  struct Frame {
    const char* name;
    std::uint64_t count;  ///< the entry count the frame claims
    std::vector<Pair> pairs;
    bool accepted;
  };
  const std::uint64_t m = make_plain()->size();
  std::vector<Pair> every_var;
  for (std::uint64_t v = 0; v < m; ++v) {
    every_var.push_back({v, static_cast<pram::Word>(v + 1)});
  }
  const Frame frames[] = {
      {"well_formed", 2, {{1, 11}, {5, 55}}, true},
      {"repeated_var", 2, {{5, 11}, {5, 55}}, false},
      {"descending_var", 2, {{9, 11}, {5, 55}}, false},
      {"count_past_m", m + 1, every_var, false},
  };
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faultable_oracle" : "default_body");
    const auto make = faulted ? std::function(make_faulted)
                              : std::function(make_plain);
    pram::BufferSink blank;
    make()->snapshot(blank);
    // Both images end in their entry count, zero for a fresh memory.
    const std::vector<std::uint8_t>& bytes = blank.bytes();
    const std::size_t prefix = bytes.size() - sizeof(std::uint64_t);
    for (const Frame& frame : frames) {
      SCOPED_TRACE(frame.name);
      pram::BufferSink sink;
      sink.write(bytes.data(), prefix);
      pram::put_u64(sink, frame.count);
      for (const Pair& pair : frame.pairs) {
        pram::put_u64(sink, pair.var);
        pram::put_word(sink, pair.value);
      }
      auto target = make();
      pram::BufferSource source(sink.bytes());
      const bool restored = target->restore(source);
      EXPECT_EQ(restored, frame.accepted);
      if (!restored || !frame.accepted) {
        continue;
      }
      for (const Pair& pair : frame.pairs) {
        const VarId var(static_cast<std::uint32_t>(pair.var));
        if (faulted) {
          const auto& wrapper =
              static_cast<const faults::FaultableMemory&>(*target);
          EXPECT_EQ(wrapper.checker().expected(var), pair.value);
        } else {
          EXPECT_EQ(target->peek(var), pair.value);
        }
      }
    }
  }
}

TEST(Checkpoint, RetentionPrunesToTheNewestKeep) {
  const std::string dir = scratch_dir("ckpt_keep");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3});
  durability::Checkpointer checkpointer({dir, 2});
  checkpointer.write(*memory, 2);
  checkpointer.write(*memory, 4);
  checkpointer.write(*memory, 6);
  EXPECT_EQ(checkpointer.checkpoints_written(), 3u);
  EXPECT_FALSE(fs::exists(durability::Checkpointer::path_for(dir, 2)));
  EXPECT_TRUE(fs::exists(durability::Checkpointer::path_for(dir, 4)));
  EXPECT_TRUE(fs::exists(durability::Checkpointer::path_for(dir, 6)));
}

TEST(Recovery, FromAnEmptyDirectoryIsANoOp) {
  const std::string dir = scratch_dir("recover_nothing");
  auto memory = core::make_memory(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const auto outcome =
      durability::recover(*memory, dir + "/wal.log", dir);
  EXPECT_FALSE(outcome.checkpoint_loaded);
  EXPECT_EQ(outcome.replayed_records, 0u);
  EXPECT_EQ(outcome.recovered_step, 0u);
  EXPECT_FALSE(outcome.torn_wal_tail);
}

// ----- the kill-point crash matrix -----------------------------------------

struct MatrixScheme {
  const char* name;
  core::SchemeSpec spec;
};

const std::vector<MatrixScheme>& matrix_schemes() {
  static const std::vector<MatrixScheme> schemes = {
      {"dmmpc", {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3}},
      {"ida", {.kind = core::SchemeKind::kIda, .n = 16, .seed = 3}},
      {"hashed", {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3}},
      {"dmmpc_cached",
       {.kind = core::SchemeKind::kDmmpc,
        .n = 16,
        .seed = 3,
        .cache_lines = 32}},
  };
  return schemes;
}

using MatrixParam = std::tuple<std::size_t, core::KillPoint>;

class CrashMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  [[nodiscard]] static const MatrixScheme& scheme() {
    return matrix_schemes()[std::get<0>(GetParam())];
  }
  [[nodiscard]] static core::KillPoint kill_point() {
    return std::get<1>(GetParam());
  }
};

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  return std::string(matrix_schemes()[std::get<0>(info.param)].name) + "_" +
         core::to_string(std::get<1>(info.param));
}

/// The per-kill-point protocol invariants, beyond bit-exactness.
void expect_kill_point_invariants(const core::CrashRecoveryResult& result,
                                  core::KillPoint point) {
  switch (point) {
    case core::KillPoint::kCleanShutdown:
      // Final checkpoint covers everything; the truncated WAL replays
      // nothing.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_TRUE(result.recovery.checkpoint_loaded);
      EXPECT_EQ(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_EQ(result.recovery.replayed_records, 0u);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kMidWalAppend:
      // The torn final record is detected and dropped: the durable
      // horizon is exactly one committed step behind the kill.
      EXPECT_EQ(result.durable_step, result.kill_step - 1);
      EXPECT_TRUE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kAfterWalFlush:
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kMidCheckpoint:
      // The torn checkpoint is rejected; the WAL carries recovery to the
      // full durable horizon anyway.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_LT(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_FALSE(result.recovery.torn_wal_tail);
      break;
    case core::KillPoint::kAfterCheckpointPreTruncate:
      // The checkpoint is durable but the log was never trimmed: every
      // surviving record is covered and must be skipped, not re-applied.
      EXPECT_EQ(result.durable_step, result.kill_step);
      EXPECT_TRUE(result.recovery.checkpoint_loaded);
      EXPECT_EQ(result.recovery.checkpoint_step, result.kill_step);
      EXPECT_EQ(result.recovery.replayed_records, 0u);
      EXPECT_GE(result.recovery.skipped_records, 1u);
      break;
  }
}

TEST_P(CrashMatrixTest, RecoversBitExactWithZeroLostCommittedWrites) {
  core::SimulationPipeline pipeline(scheme().spec);
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    core::CrashRecoveryOptions options;
    options.steps = 24;
    options.seed = seed;
    options.family = pram::TraceFamily::kUniform;
    options.kill_point = kill_point();
    options.durability.directory =
        scratch_dir(std::string("matrix_") + scheme().name + "_" +
                    core::to_string(kill_point()) + "_" +
                    std::to_string(seed));
    options.durability.wal_flush_interval = 2;
    options.durability.checkpoint_interval = 6;

    const auto result = pipeline.run_crash_recovery(options);
    ASSERT_GE(result.kill_step, 1u);
    ASSERT_LE(result.kill_step, options.steps);
    EXPECT_TRUE(result.bit_exact)
        << scheme().name << " seed " << seed << " killed at step "
        << result.kill_step;
    EXPECT_EQ(result.lost_committed_writes, 0u)
        << scheme().name << " seed " << seed;
    EXPECT_EQ(result.vars_checked, pipeline.scheme().m);
    expect_kill_point_invariants(result, kill_point());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesKillPoints, CrashMatrixTest,
    ::testing::Combine(::testing::Range(std::size_t{0},
                                        matrix_schemes().size()),
                       ::testing::ValuesIn(core::all_kill_points())),
    matrix_name);

// Crash recovery under ACTIVE fault injection: dynamic-onset module
// kills land before the crash, the WAL carries onset acknowledgements,
// and the recovered machine (same fault seed, oracle restored from the
// checkpoint) still matches the uninterrupted reference bit for bit.
TEST(CrashRecovery, SurvivesCrashUnderDynamicFaultOnsets) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const faults::FaultSpec fault_spec{.seed = 41,
                                     .module_kill_rate = 0.2,
                                     .onset_min = 2,
                                     .onset_max = 6};
  core::CrashRecoveryOptions options;
  options.steps = 20;
  options.seed = 7;
  options.kill_step = 12;  // past the onset window: onsets are acked
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory = scratch_dir("crash_faulted");
  // No natural checkpoint before the kill, so truncate_through never
  // trims the early onset acknowledgements out of the surviving log.
  options.durability.checkpoint_interval = 100;

  const auto result = pipeline.run_crash_recovery(options, &fault_spec);
  EXPECT_TRUE(result.bit_exact);
  EXPECT_EQ(result.durable_step, 12u);

  // The surviving log shows the acknowledged onsets alongside commits.
  const auto log = durability::read_wal(options.durability.directory +
                                        std::string("/wal.log"));
  std::size_t onset_records = 0;
  for (const auto& record : log.records) {
    if (record.kind == durability::WalRecordKind::kFaultOnset) {
      ++onset_records;
    }
  }
  EXPECT_GT(onset_records, 0u);
}

// Observability: a crash-recovery run journals the checkpoint lifecycle
// (kCheckpointBegin/kCheckpointEnd) and the replay (kWalReplay), and the
// wal.* / checkpoint.* counters tally the protocol's actual traffic.
TEST(CrashRecovery, JournalsCheckpointAndReplayEvents) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  core::CrashRecoveryOptions options;
  options.steps = 16;
  options.seed = 5;
  options.kill_step = 15;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.directory = scratch_dir("crash_obs");
  options.durability.checkpoint_interval = 4;
  options.obs_enabled = true;

  const auto result = pipeline.run_crash_recovery(options);
  EXPECT_TRUE(result.bit_exact);

  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t replays = 0;
  for (const auto& event : result.obs.journal.events()) {
    switch (event.kind) {
      case obs::EventKind::kCheckpointBegin: ++begins; break;
      case obs::EventKind::kCheckpointEnd: ++ends; break;
      case obs::EventKind::kWalReplay: ++replays; break;
      default: break;
    }
  }
  EXPECT_EQ(begins, 3u);  // natural checkpoints at steps 4, 8, 12
  EXPECT_EQ(ends, begins);
  // The WAL tail past the last checkpoint (steps 13..15) replays.
  EXPECT_EQ(replays, 3u);

  const auto& counters = result.obs.metrics.counters();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("wal.records"), 0u);
  EXPECT_GT(counter("wal.flushes"), 0u);
  EXPECT_GT(counter("wal.flushed_bytes"), 0u);
  EXPECT_EQ(counter("wal.truncations"), 3u);
  EXPECT_EQ(counter("checkpoint.writes"), 3u);
  EXPECT_GT(counter("checkpoint.bytes"), 0u);
  EXPECT_EQ(counter("checkpoint.loads"), 1u);
  EXPECT_EQ(counter("wal.replayed_records"), 3u);
}

// Recovery cost must scale with the WAL tail, not the run length: a long
// run with a recent checkpoint replays only the few records after it.
TEST(CrashRecovery, ReplayScalesWithLogTailNotRunLength) {
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  core::CrashRecoveryOptions options;
  options.seed = 11;
  options.kill_point = core::KillPoint::kAfterWalFlush;
  options.durability.checkpoint_interval = 8;

  options.steps = 64;
  options.kill_step = 62;
  options.durability.directory = scratch_dir("tail_long");
  const auto long_run = pipeline.run_crash_recovery(options);

  options.steps = 16;
  options.kill_step = 14;
  options.durability.directory = scratch_dir("tail_short");
  const auto short_run = pipeline.run_crash_recovery(options);

  EXPECT_TRUE(long_run.bit_exact);
  EXPECT_TRUE(short_run.bit_exact);
  // Both killed 6 steps past their last natural checkpoint (56 and 8):
  // identical replay work despite a 4x difference in run length.
  EXPECT_EQ(long_run.recovery.checkpoint_step, 56u);
  EXPECT_EQ(short_run.recovery.checkpoint_step, 8u);
  EXPECT_EQ(long_run.recovery.replayed_records, 6u);
  EXPECT_EQ(short_run.recovery.replayed_records, 6u);
}

}  // namespace
}  // namespace pramsim
