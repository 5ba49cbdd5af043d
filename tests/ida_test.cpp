// Tests for GF(256) arithmetic, Rabin dispersal (any-b-of-d recovery),
// and the Schuster IdaMemory scheme.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/schemes.hpp"
#include "durability/checkpoint.hpp"
#include "durability/crc32.hpp"
#include "faults/faultable_memory.hpp"
#include "ida/dispersal.hpp"
#include "ida/gf256.hpp"
#include "ida/ida_memory.hpp"
#include "obs/sink.hpp"
#include "pram/plan_builder.hpp"
#include "pram/serve_context.hpp"
#include "util/rng.hpp"

namespace pramsim::ida {
namespace {

using pram::VarWrite;
using pram::Word;

// ---------------------------------------------------------- GF(256) -----

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0b1010, 0b0110), 0b1100);
  EXPECT_EQ(GF256::add(0xFF, 0xFF), 0);  // every element is self-inverse
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, 1), e);
    EXPECT_EQ(GF256::mul(1, e), e);
    EXPECT_EQ(GF256::mul(e, 0), 0);
  }
}

TEST(Gf256, KnownProducts) {
  // In GF(256) with poly 0x11D: 2*128 = 0x100 -> reduced by 0x11D = 0x1D.
  EXPECT_EQ(GF256::mul(2, 128), 0x1D);
  EXPECT_EQ(GF256::mul(3, 7), 9);  // (x+1)(x^2+x+1) = x^3+1 -> 0b1001
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, GF256::inv(e)), 1) << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  util::Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.below(256));
    const auto b = static_cast<GF256::Elem>(rng.between(1, 255));
    EXPECT_EQ(GF256::div(GF256::mul(a, b), b), a);
  }
}

TEST(Gf256, FieldAxiomsOnRandomSamples) {
  util::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.below(256));
    const auto b = static_cast<GF256::Elem>(rng.below(256));
    const auto c = static_cast<GF256::Elem>(rng.below(256));
    // commutativity
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    // associativity
    EXPECT_EQ(GF256::mul(a, GF256::mul(b, c)),
              GF256::mul(GF256::mul(a, b), c));
    // distributivity
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(Gf256, AlphaGeneratesAllNonzeroElements) {
  std::set<GF256::Elem> seen;
  for (std::uint32_t i = 0; i < 255; ++i) {
    seen.insert(GF256::alpha_pow(i));
  }
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(Gf256, PowMatchesRepeatedMul) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.between(1, 255));
    const auto e = static_cast<std::uint32_t>(rng.below(10));
    GF256::Elem expect = 1;
    for (std::uint32_t i = 0; i < e; ++i) {
      expect = GF256::mul(expect, a);
    }
    EXPECT_EQ(GF256::pow(a, e), expect);
  }
}

// log[a] * e overflowed uint32_t once e >= 2^32 / 254; the group order
// is 255, so pow must equal pow of the reduced exponent.
TEST(Gf256, PowReducesLargeExponents) {
  const GF256::Elem top = GF256::alpha_pow(254);
  EXPECT_EQ(GF256::pow(top, 4'000'000'000u), 51);
  EXPECT_EQ(GF256::pow(top, 4'000'000'000u), GF256::pow(top, 130));
  util::Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<GF256::Elem>(rng.between(1, 255));
    const auto e = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(GF256::pow(a, e), GF256::pow(a, e % 255)) << "e=" << e;
  }
  for (int a = 1; a < 256; ++a) {
    for (const std::uint32_t k : {1u, 2u, 1000u, 16'843'009u}) {
      ASSERT_EQ(GF256::pow(static_cast<GF256::Elem>(a), 255 * k), 1)
          << "a=" << a << " k=" << k;
    }
  }
}

// The vector kernel behind mul_span_accum against the scalar reference:
// every constant, every length through four 32-byte chunks plus a tail,
// misaligned sources and destinations, and the in-place (dst == src)
// form. Bytes outside the span must stay untouched.
TEST(Gf256, MulSpanAccumMatchesScalarReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 130;
  constexpr std::size_t kPad = 32 + 8;
  util::Rng rng(5);
  std::vector<GF256::Elem> src(kMaxLen + kPad);
  std::vector<GF256::Elem> dst0(kMaxLen + kPad);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<GF256::Elem>(rng.below(256));
    dst0[i] = static_cast<GF256::Elem>(rng.below(256));
  }
  std::vector<GF256::Elem> got;
  std::vector<GF256::Elem> want;
  for (int ci = 0; ci < 256; ++ci) {
    const auto c = static_cast<GF256::Elem>(ci);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      for (const std::size_t src_off : {0, 1, 2, 3, 31}) {
        for (const std::size_t dst_off : {0, 1, 2, 3, 31}) {
          got = dst0;
          want = dst0;
          GF256::mul_span_accum(got.data() + dst_off, src.data() + src_off,
                                len, c);
          GF256::mul_span_accum_scalar(want.data() + dst_off,
                                       src.data() + src_off, len, c);
          ASSERT_EQ(got, want) << "c=" << ci << " len=" << len
                               << " src+" << src_off << " dst+" << dst_off;
        }
      }
      for (const std::size_t off : {0, 1, 31}) {
        got = dst0;
        want = dst0;
        GF256::mul_span_accum(got.data() + off, got.data() + off, len, c);
        GF256::mul_span_accum_scalar(want.data() + off, want.data() + off,
                                     len, c);
        ASSERT_EQ(got, want) << "in place: c=" << ci << " len=" << len
                             << " off=" << off;
      }
    }
  }
}

// -------------------------------------------------------- dispersal -----

class DispersalRoundTrip
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(DispersalRoundTrip, AnyBSharesRecoverTheBlock) {
  const auto [b, d] = GetParam();
  Disperser disperser({b, d});
  util::Rng rng(100 + b * 7 + d);
  std::vector<GF256::Elem> block(b);
  for (auto& e : block) {
    e = static_cast<GF256::Elem>(rng.below(256));
  }
  const auto shares = disperser.encode_bytes(block);
  ASSERT_EQ(shares.size(), d);

  // Try several random b-subsets of the d shares.
  for (int trial = 0; trial < 20; ++trial) {
    const auto pick = rng.sample_without_replacement(d, b);
    std::vector<std::uint32_t> indices;
    std::vector<GF256::Elem> values;
    for (const auto idx : pick) {
      indices.push_back(static_cast<std::uint32_t>(idx));
      values.push_back(shares[idx]);
    }
    const auto recovered = disperser.recover_bytes(indices, values);
    EXPECT_EQ(recovered, block) << "b=" << b << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, DispersalRoundTrip,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 4u),
                      std::make_pair(2u, 3u), std::make_pair(4u, 8u),
                      std::make_pair(8u, 16u), std::make_pair(16u, 24u),
                      std::make_pair(32u, 64u), std::make_pair(13u, 40u)));

TEST(Dispersal, SystematicPrefixNotRequired) {
  // The first b shares are P(alpha^0..alpha^(b-1)), not the raw block:
  // dispersal is non-systematic, so recovery must genuinely interpolate.
  Disperser disperser({4, 8});
  std::vector<GF256::Elem> block = {10, 20, 30, 40};
  const auto shares = disperser.encode_bytes(block);
  std::vector<GF256::Elem> prefix(shares.begin(), shares.begin() + 4);
  EXPECT_NE(prefix, block);
}

TEST(Dispersal, WordLanesIndependent) {
  Disperser disperser({4, 8});
  util::Rng rng(17);
  std::vector<Word> block(4);
  for (auto& w : block) {
    w = static_cast<Word>(rng.next());
  }
  const auto shares = disperser.encode_words(block);
  ASSERT_EQ(shares.size(), 8u);
  // Recover from shares {1, 3, 4, 6}.
  const std::vector<std::uint32_t> indices = {1, 3, 4, 6};
  const std::vector<Word> vals = {shares[1], shares[3], shares[4], shares[6]};
  EXPECT_EQ(disperser.recover_words(indices, vals), block);
}

TEST(Gf256, MulSpanAccumMatchesScalarMul) {
  util::Rng rng(77);
  for (const int ci : {0, 1, 2, 29, 255}) {
    const auto c = static_cast<GF256::Elem>(ci);
    std::vector<GF256::Elem> src(97), dst(97), expect(97);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<GF256::Elem>(rng.below(256));
      dst[i] = static_cast<GF256::Elem>(rng.below(256));
      expect[i] = GF256::add(dst[i], GF256::mul(c, src[i]));
    }
    GF256::mul_span_accum(dst.data(), src.data(), dst.size(), c);
    EXPECT_EQ(dst, expect) << "c=" << int{c};
  }
}

// The bulk region codec must be BIT-identical to the per-word paths it
// replaces: encode_regions against Horner encode_words block by block,
// decode_regions (identity AND arbitrary surviving-index sets) against
// Lagrange recover_words. This is the equivalence the width-1 storage
// rule leans on.
//
// (b, d) = (10, 20) is the benchmark's shape; its counts put the span
// lengths (8 bytes per block) below one 32-byte vector chunk, at exactly
// one, and at whole chunks plus 8- and 24-byte tails, so the vector
// body and the scalar tail both run in encode and in decode.
struct BulkCodecShape {
  std::uint32_t b;
  std::uint32_t d;
  std::uint32_t count;  ///< blocks per codec call
};

void expect_bulk_codec_matches_per_word_codec(const BulkCodecShape& shape) {
  const auto [b, d, count] = shape;
  Disperser disperser({b, d});
  util::Rng rng(31 + count);
  std::vector<pram::Word> blocks(static_cast<std::size_t>(count) * b);
  for (auto& w : blocks) {
    w = static_cast<pram::Word>(rng.next());
  }

  // Encode: share spans with stride > count to exercise strided layout.
  const std::size_t stride = count + 3;
  std::vector<pram::Word> shares(static_cast<std::size_t>(d) * stride, -1);
  disperser.encode_regions(blocks.data(), count, shares.data(), stride);
  for (std::uint32_t t = 0; t < count; ++t) {
    const std::vector<pram::Word> one(blocks.begin() + t * b,
                                      blocks.begin() + (t + 1) * b);
    const auto expect = disperser.encode_words(one);
    for (std::uint32_t s = 0; s < d; ++s) {
      ASSERT_EQ(shares[s * stride + t], expect[s]) << "t=" << t << " s=" << s;
    }
  }

  // Identity decode (the healthy serve path).
  std::vector<std::uint32_t> identity(b);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<pram::Word> out(blocks.size(), 0);
  disperser.decode_regions(identity, shares.data(), stride, count,
                           out.data());
  EXPECT_EQ(out, blocks);

  // Arbitrary survivor sets (the degraded gather): position j's span
  // holds share indices[j]'s words.
  for (int trial = 0; trial < 10; ++trial) {
    const auto pick = rng.sample_without_replacement(d, b);
    std::vector<std::uint32_t> indices;
    std::vector<pram::Word> packed(static_cast<std::size_t>(b) * count);
    for (std::uint32_t j = 0; j < b; ++j) {
      indices.push_back(static_cast<std::uint32_t>(pick[j]));
      for (std::uint32_t t = 0; t < count; ++t) {
        packed[static_cast<std::size_t>(j) * count + t] =
            shares[pick[j] * stride + t];
      }
    }
    std::fill(out.begin(), out.end(), 0);
    disperser.decode_regions(indices, packed.data(), count, count,
                             out.data());
    ASSERT_EQ(out, blocks) << "trial " << trial;

    // And per-block agreement with the classic Lagrange path, for the
    // first block and the last (which sits in the scalar tail).
    for (const std::uint32_t t : {0u, count - 1}) {
      std::vector<pram::Word> vals(b);
      for (std::uint32_t j = 0; j < b; ++j) {
        vals[j] = packed[static_cast<std::size_t>(j) * count + t];
      }
      const auto classic = disperser.recover_words(indices, vals);
      for (std::uint32_t j = 0; j < b; ++j) {
        ASSERT_EQ(out[static_cast<std::size_t>(t) * b + j], classic[j])
            << "trial " << trial << " t=" << t;
      }
    }
  }
}

TEST(Dispersal, BulkRegionCodecMatchesPerWordCodec) {
  for (const BulkCodecShape shape :
       {BulkCodecShape{4, 8, 6}, BulkCodecShape{10, 20, 1},
        BulkCodecShape{10, 20, 3}, BulkCodecShape{10, 20, 4},
        BulkCodecShape{10, 20, 5}, BulkCodecShape{10, 20, 33},
        BulkCodecShape{10, 20, 1019}}) {
    SCOPED_TRACE("b=" + std::to_string(shape.b) + " d=" +
                 std::to_string(shape.d) + " count=" +
                 std::to_string(shape.count));
    expect_bulk_codec_matches_per_word_codec(shape);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Dispersal, StorageFactorIsDOverB) {
  EXPECT_DOUBLE_EQ(Disperser({4, 8}).storage_factor(), 2.0);
  EXPECT_DOUBLE_EQ(Disperser({10, 15}).storage_factor(), 1.5);
}

TEST(Dispersal, ToleratesMaximumErasures) {
  // Lose d-b shares (the worst case); the rest must still recover.
  const std::uint32_t b = 6;
  const std::uint32_t d = 14;
  Disperser disperser({b, d});
  util::Rng rng(23);
  std::vector<GF256::Elem> block(b);
  for (auto& e : block) {
    e = static_cast<GF256::Elem>(rng.below(256));
  }
  const auto shares = disperser.encode_bytes(block);
  // Keep only the LAST b shares (erase the first d-b).
  std::vector<std::uint32_t> indices(b);
  std::iota(indices.begin(), indices.end(), d - b);
  std::vector<GF256::Elem> values;
  for (const auto idx : indices) {
    values.push_back(shares[idx]);
  }
  EXPECT_EQ(disperser.recover_bytes(indices, values), block);
}

// -------------------------------------------------------- IdaMemory -----

IdaMemoryConfig small_config() {
  IdaMemoryConfig cfg;
  cfg.b = 4;
  cfg.d = 8;
  cfg.n_modules = 32;
  cfg.seed = 5;
  return cfg;
}

TEST(IdaMemory, ReadAfterWrite) {
  IdaMemory mem(64, small_config());
  const VarWrite writes[] = {{VarId(10), 777}};
  mem.step({}, {}, writes);
  const VarId reads[] = {VarId(10)};
  Word values[1];
  mem.step(reads, values, {});
  EXPECT_EQ(values[0], 777);
}

TEST(IdaMemory, ReadsSeePreStepState) {
  IdaMemory mem(64, small_config());
  mem.poke(VarId(3), 100);
  const VarId reads[] = {VarId(3)};
  Word values[1];
  const VarWrite writes[] = {{VarId(3), 200}};
  mem.step(reads, values, writes);
  EXPECT_EQ(values[0], 100);
  EXPECT_EQ(mem.peek(VarId(3)), 200);
}

TEST(IdaMemory, NeighborsInBlockUnaffectedByWrite) {
  IdaMemory mem(64, small_config());
  for (std::uint32_t v = 0; v < 8; ++v) {
    mem.poke(VarId(v), static_cast<Word>(v * 10));
  }
  const VarWrite writes[] = {{VarId(2), 999}};
  mem.step({}, {}, writes);
  for (std::uint32_t v = 0; v < 8; ++v) {
    EXPECT_EQ(mem.peek(VarId(v)), v == 2 ? 999 : static_cast<Word>(v * 10));
  }
}

// Region-granular share storage is a pure layout change: the same
// operation stream against region_blocks = 1 (the classic
// one-row-per-block layout) and region_blocks = 4 must stay bit-exact —
// reads, final peeks, and cost — with and without per-share checksums.
TEST(IdaMemory, RegionStorageMatchesClassicLayout) {
  for (const bool check : {false, true}) {
    auto classic_cfg = small_config();
    classic_cfg.check_shares = check;
    auto region_cfg = classic_cfg;
    region_cfg.region_blocks = 4;
    IdaMemory classic(64, classic_cfg);
    IdaMemory region(64, region_cfg);
    EXPECT_EQ(region.region_blocks(), 4u);

    util::Rng rng(91);
    for (int s = 0; s < 30; ++s) {
      VarId reads[3] = {VarId(0), VarId(0), VarId(0)};
      Word got_classic[3] = {};
      Word got_region[3] = {};
      VarWrite writes[2];
      for (auto& r : reads) {
        r = VarId(static_cast<std::uint32_t>(rng.below(64)));
      }
      for (auto& w : writes) {
        w = {VarId(static_cast<std::uint32_t>(rng.below(64))),
             static_cast<Word>(rng.below(100000))};
      }
      if (writes[0].var == writes[1].var) {
        writes[1].var = VarId((writes[1].var.index() + 1) % 64);
      }
      const auto cost_classic = classic.step(reads, got_classic, writes);
      const auto cost_region = region.step(reads, got_region, writes);
      for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(got_classic[i], got_region[i]) << "step " << s;
      }
      EXPECT_EQ(cost_classic.time, cost_region.time) << "step " << s;
      EXPECT_EQ(cost_classic.work, cost_region.work) << "step " << s;
    }
    for (std::uint32_t v = 0; v < 64; ++v) {
      ASSERT_EQ(classic.peek(VarId(v)), region.peek(VarId(v)))
          << "check=" << check << " cell " << v;
    }
    EXPECT_DOUBLE_EQ(classic.work_amplification(),
                     region.work_amplification());
  }
}

TEST(IdaMemory, OracleConsistencyUnderRandomStream) {
  IdaMemory mem(256, small_config());
  std::map<std::uint32_t, Word> oracle;
  util::Rng rng(31);
  for (int step = 0; step < 150; ++step) {
    std::set<std::uint32_t> rset;
    std::set<std::uint32_t> wset;
    for (std::uint64_t i = 0, k = rng.below(10); i < k; ++i) {
      rset.insert(static_cast<std::uint32_t>(rng.below(256)));
    }
    for (std::uint64_t i = 0, k = rng.below(10); i < k; ++i) {
      wset.insert(static_cast<std::uint32_t>(rng.below(256)));
    }
    std::vector<VarId> reads(rset.begin(), rset.end());
    std::vector<VarWrite> writes;
    for (const auto v : wset) {
      writes.push_back({VarId(v), static_cast<Word>(rng.below(1 << 30))});
    }
    std::vector<Word> values(reads.size());
    mem.step(reads, values, writes);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto it = oracle.find(reads[i].value());
      ASSERT_EQ(values[i], it == oracle.end() ? 0 : it->second)
          << "step " << step;
    }
    for (const auto& w : writes) {
      oracle[w.var.value()] = w.value;
    }
  }
}

TEST(IdaMemory, WorkAmplificationIsThetaB) {
  // Reading k variables from distinct blocks processes k*b variables.
  IdaMemoryConfig cfg = small_config();
  IdaMemory mem(256, cfg);
  std::vector<VarId> reads;
  for (std::uint32_t blk = 0; blk < 16; ++blk) {
    reads.emplace_back(blk * cfg.b);  // one var per block
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  EXPECT_EQ(cost.work, 16u * cfg.b);  // b shares fetched per block
  EXPECT_NEAR(mem.work_amplification(), cfg.b, 1e-9);
}

TEST(IdaMemory, WritesCostMoreThanReads) {
  IdaMemoryConfig cfg = small_config();
  IdaMemory mem_r(256, cfg);
  IdaMemory mem_w(256, cfg);
  std::vector<VarId> reads;
  std::vector<VarWrite> writes;
  for (std::uint32_t blk = 0; blk < 8; ++blk) {
    reads.emplace_back(blk * cfg.b);
    writes.push_back({VarId(blk * cfg.b), 5});
  }
  std::vector<Word> values(reads.size());
  const auto rc = mem_r.step(reads, values, {});
  const auto wc = mem_w.step({}, {}, writes);
  // A write is read-modify-write: b fetches + d updates per block.
  EXPECT_GT(wc.work, rc.work);
  EXPECT_EQ(wc.work, 8u * (cfg.b + cfg.d));
}

TEST(IdaMemory, TimeReflectsModuleContention) {
  // Hammering many variables in one block serializes on that block's
  // modules less than hammering across blocks on a tiny module count.
  IdaMemoryConfig cfg;
  cfg.b = 4;
  cfg.d = 8;
  cfg.n_modules = 8;  // tight: heavy contention
  cfg.seed = 9;
  IdaMemory mem(512, cfg);
  std::vector<VarId> reads;
  for (std::uint32_t blk = 0; blk < 64; ++blk) {
    reads.emplace_back(blk * cfg.b);
  }
  std::vector<Word> values(reads.size());
  const auto cost = mem.step(reads, values, {});
  // 64 blocks x 4 shares over 8 modules: >= 32 rounds.
  EXPECT_GE(cost.time, 32u);
}

// ------------------------------------------- serve fingerprints -------
//
// Golden fingerprints pin IdaMemory::serve bit for bit. Each case drives
// core::make_memory(kIda) (optionally inside faults::FaultableMemory)
// through pram::PlanBuilder and serve() and folds everything a step
// exposes: read values, outage flags, time/work/max_queue, scrub
// results, the journal, and at the end every ReliabilityStats field. The
// final checkpoint image's size and CRC pin the stored share words. The
// constants were recorded with the per-block serve path (one codec call
// per run of consecutive read blocks, one encode per written block),
// which the step-batched recode replaced.

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// One step's traffic: every tenth step (from step 3) is empty and every
/// tenth (from step 7) writes only; a quarter of the accesses land in a
/// 16-word hot window, so several writes share a block and some variables
/// are both read and written.
pram::AccessBatch fingerprint_batch(std::uint64_t step, std::uint32_t n,
                                    std::uint64_t m, double write_fraction,
                                    util::Rng& rng) {
  pram::AccessBatch batch;
  if (step % 10 == 3) {
    return batch;
  }
  const bool write_only = step % 10 == 7;
  const std::uint64_t hot = rng.below(m - 16);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint64_t var =
        rng.below(4) == 0 ? hot + rng.below(16) : rng.below(m);
    const bool write = write_only || rng.bernoulli(write_fraction);
    batch.push_back({ProcId(p),
                     write ? pram::AccessOp::kWrite : pram::AccessOp::kRead,
                     VarId(static_cast<std::uint32_t>(var)),
                     write ? static_cast<Word>(rng.next()) : 0});
  }
  return batch;
}

struct ServeFingerprintCase {
  const char* name;
  core::SchemeSpec spec;
  /// Wrap in FaultableMemory with this spec (inert = bare scheme).
  faults::FaultSpec faults;
  std::uint64_t steps;
  double write_fraction;
  std::uint64_t scrub_every;  ///< 0 = never scrub
  std::uint64_t want;
  std::uint64_t image_bytes;
  std::uint32_t image_crc;
};

void PrintTo(const ServeFingerprintCase& fc, std::ostream* os) {
  *os << fc.name;
}

class ServeFingerprintTest
    : public ::testing::TestWithParam<ServeFingerprintCase> {};

TEST_P(ServeFingerprintTest, ServeMatchesTheGoldenRun) {
  const ServeFingerprintCase& fc = GetParam();
  std::unique_ptr<pram::MemorySystem> memory =
      core::make_memory(fc.spec);
  if (!fc.faults.inert()) {
    memory = std::make_unique<faults::FaultableMemory>(std::move(memory),
                                                       fc.faults);
  }
  obs::Sink sink(obs::SinkOptions{.journal_capacity = 1 << 20});
  memory->set_observer(&sink);
  util::Rng rng(fc.spec.seed * 1000 + 7);
  pram::PlanBuilder builder;
  pram::ServeContext ctx;
  std::vector<Word> values;
  std::uint64_t h = 0;
  std::uint64_t flagged = 0;
  for (std::uint64_t step = 0; step < fc.steps; ++step) {
    const auto batch = fingerprint_batch(step, fc.spec.n, memory->size(),
                                         fc.write_fraction, rng);
    const auto& plan = builder.build(batch, *memory);
    values.assign(plan.reads.size(), 0);
    ctx.bind(values);
    const auto cost = memory->serve(plan, ctx);
    for (const std::uint64_t v : {cost.time, cost.work, cost.max_queue}) {
      h = fold(h, v);
    }
    for (const Word v : values) {
      h = fold(h, static_cast<std::uint64_t>(v));
    }
    h = fold(h, ctx.flags().size());
    for (const std::uint8_t f : ctx.flags()) {
      h = fold(h, f);
      flagged += f != 0 ? 1 : 0;
    }
    if (fc.scrub_every != 0 && step % fc.scrub_every == fc.scrub_every - 1) {
      const auto scrub = memory->scrub(200);
      for (const std::uint64_t v :
           {scrub.scanned, scrub.repaired, scrub.relocated, scrub.work}) {
        h = fold(h, v);
      }
    }
  }
  const pram::ReliabilityStats rel = memory->reliability();
  for (const std::uint64_t v :
       {rel.reads_served, rel.faults_masked, rel.units_faulty,
        rel.erasures_skipped, rel.shares_short, rel.uncorrectable,
        rel.wrong_reads, rel.writes_dropped, rel.corrupt_stores,
        rel.units_repaired, rel.units_relocated}) {
    h = fold(h, v);
  }
  sink.journal.flush();
  h = fold(h, sink.journal.recorded());
  for (const obs::Event& e : sink.journal.events()) {
    for (const std::uint64_t v :
         {e.step, static_cast<std::uint64_t>(e.kind),
          static_cast<std::uint64_t>(e.unit), e.entity, e.a, e.b}) {
      h = fold(h, v);
    }
  }
  // Each faulted case must reach the paths it is there to pin.
  if (fc.faults.corruption_rate > 0.0) {
    EXPECT_GT(rel.corrupt_stores, 0u);
    EXPECT_GT(rel.writes_dropped, 0u);
    EXPECT_GT(rel.units_relocated, 0u);
    EXPECT_GT(rel.faults_masked, 0u);
  }
  if (fc.faults.module_kill_rate >= 0.5) {
    EXPECT_GT(flagged, 0u);
    EXPECT_GT(rel.uncorrectable, 0u);
  }
  const auto image = durability::Checkpointer::file_image(*memory, fc.steps);
  EXPECT_EQ(image.size(), fc.image_bytes);
  EXPECT_EQ(durability::crc32(image.data(), image.size()), fc.image_crc)
      << std::hex << durability::crc32(image.data(), image.size());
  EXPECT_EQ(h, fc.want) << std::hex << h;
}

constexpr faults::FaultSpec kDynamicFaults{.seed = 41,
                                           .module_kill_rate = 0.1,
                                           .stuck_rate = 0.01,
                                           .corruption_rate = 0.05,
                                           .onset_min = 4,
                                           .onset_max = 40};

INSTANTIATE_TEST_SUITE_P(
    Golden, ServeFingerprintTest,
    ::testing::Values(
        ServeFingerprintCase{"n64_w1",
                             {.kind = core::SchemeKind::kIda,
                              .n = 64,
                              .eps = 0.0,
                              .seed = 3},
                             {},
                             60,
                             0.5,
                             0,
                             0x6aa1c92e0b8bc10eULL,
                             69212,
                             0x12d6d5d5u},
        ServeFingerprintCase{"ida_wide_map",
                             {.kind = core::SchemeKind::kIda,
                              .n = 1024,
                              .seed = 17,
                              .region_words = 64},
                             {},
                             12,
                             0.5,
                             0,
                             0xd3c13fbcd0930cb2ULL,
                             3873852,
                             0xfc9818adu},
        ServeFingerprintCase{"checked_w8",
                             {.kind = core::SchemeKind::kIda,
                              .n = 64,
                              .eps = 0.5,
                              .seed = 3,
                              .ida_check_shares = true,
                              .region_words = 8},
                             {},
                             60,
                             0.7,
                             0,
                             0xeb01ea9cad704746ULL,
                             135724,
                             0x571f1f2fu},
        ServeFingerprintCase{"faulted_w1",
                             {.kind = core::SchemeKind::kIda,
                              .n = 64,
                              .seed = 3},
                             kDynamicFaults,
                             60,
                             0.5,
                             5,
                             0xfe1e28d7ae0abccdULL,
                             102848,
                             0x61eb0cf7u},
        ServeFingerprintCase{"faulted_checked_w8",
                             {.kind = core::SchemeKind::kIda,
                              .n = 64,
                              .seed = 3,
                              .ida_check_shares = true,
                              .region_words = 8},
                             kDynamicFaults,
                             60,
                             0.5,
                             5,
                             0xe420b2f741c4d4c0ULL,
                             162080,
                             0x21255689u},
        ServeFingerprintCase{"uncorrectable",
                             {.kind = core::SchemeKind::kIda,
                              .n = 64,
                              .seed = 3},
                             {.seed = 9, .module_kill_rate = 0.6},
                             30,
                             0.5,
                             0,
                             0x1df0bab380b9eea2ULL,
                             65580,
                             0xe2c5560bu}),
    [](const ::testing::TestParamInfo<ServeFingerprintCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pramsim::ida
