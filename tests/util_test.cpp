// Unit and property tests for src/util.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <map>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "pram/snapshot.hpp"
#include "util/bitset.hpp"
#include "util/fit.hpp"
#include "util/math.hpp"
#include "util/paged_rows.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/scratch_map.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strong_id.hpp"
#include "util/table.hpp"

namespace pramsim::util {
namespace {

// ---------------------------------------------------------------- math ----

TEST(Math, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
  EXPECT_EQ(ilog2_floor(~0ULL), 63);
}

TEST(Math, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  EXPECT_EQ(ilog2_ceil(5), 3);
  EXPECT_EQ(ilog2_ceil(1ULL << 40), 40);
  EXPECT_EQ(ilog2_ceil((1ULL << 40) + 1), 41);
}

TEST(Math, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(10, 0), 1u);
  EXPECT_EQ(ipow(3, 4), 81u);
  EXPECT_EQ(ipow(1, 63), 1u);
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1ULL << 62), 1ULL << 31);
}

TEST(Math, LnBinomialMatchesSmallExactValues) {
  // C(10, 3) = 120, C(52, 5) = 2598960.
  EXPECT_NEAR(std::exp(ln_binomial(10, 3)), 120.0, 1e-6);
  EXPECT_NEAR(std::exp(ln_binomial(52, 5)), 2598960.0, 1e-3);
}

TEST(Math, LnBinomialOutOfRangeIsMinusInf) {
  EXPECT_EQ(ln_binomial(5, 6), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(ln_binomial(5, -1), -std::numeric_limits<double>::infinity());
}

TEST(Math, Log2BinomialSymmetry) {
  for (int n = 2; n <= 40; n += 7) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(log2_binomial(n, k), log2_binomial(n, n - k), 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Math, LnAddExp) {
  EXPECT_NEAR(ln_add_exp(std::log(3.0), std::log(5.0)), std::log(8.0), 1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(ln_add_exp(ninf, 2.0), 2.0);
  EXPECT_EQ(ln_add_exp(2.0, ninf), 2.0);
}

TEST(Math, LogSqOverLoglogMonotone) {
  double prev = 0.0;
  for (double n : {16.0, 64.0, 256.0, 1024.0, 65536.0}) {
    const double v = log2_sq_over_loglog(n);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRangeAndCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (const auto v : p) {
    ASSERT_LT(v, 257u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(1000, 64);
    ASSERT_EQ(sample.size(), 64u);
    std::set<std::uint64_t> s(sample.begin(), sample.end());
    ASSERT_EQ(s.size(), 64u);
    for (const auto v : sample) {
      ASSERT_LT(v, 1000u);
    }
  }
}

TEST(Rng, SampleFullRange) {
  Rng rng(13);
  auto sample = rng.sample_without_replacement(16, 16);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(sample[i], i);
  }
}

TEST(Rng, BernoulliEdges) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, SplitStreamsDecorrelated) {
  Rng parent(77);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += parent.next() == child.next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------- paged rows ----

/// A 16-byte padding-free element, the size of majority::Copy.
struct Pair {
  std::uint64_t value = 0;
  std::uint64_t stamp = 0;
};

template <typename T>
T element(std::uint64_t x) {
  if constexpr (std::is_same_v<T, Pair>) {
    return Pair{x, x * 3 + 1};
  } else {
    return static_cast<T>(x);
  }
}

template <typename T>
bool same_row(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Every query of `rows` agrees with `ref` at every key below `limit`,
/// and the walk visits exactly ref's keys in ascending order.
template <typename T>
void expect_same_as_reference(
    const PagedRows<T>& rows,
    const std::map<std::uint64_t, std::vector<T>>& ref, std::uint64_t limit) {
  ASSERT_EQ(rows.count(), ref.size());
  for (std::uint64_t key = 0; key < limit; ++key) {
    const auto it = ref.find(key);
    ASSERT_EQ(rows.contains(key), it != ref.end()) << key;
    const T* row = rows.find(key);
    if (it == ref.end()) {
      ASSERT_EQ(row, nullptr) << key;
    } else {
      ASSERT_NE(row, nullptr) << key;
      ASSERT_TRUE(same_row<T>({row, rows.row_len()}, it->second)) << key;
    }
  }
  auto next = ref.begin();
  rows.for_each([&](std::uint64_t key, std::span<const T> row) {
    ASSERT_NE(next, ref.end());
    ASSERT_EQ(key, next->first);
    ASSERT_TRUE(same_row<T>(row, next->second)) << key;
    ++next;
  });
  ASSERT_EQ(next, ref.end());
}

/// One seeded stream of inserts (fresh and repeated, each rewriting part
/// of the row), erases, far lookups and the occasional clear, over
/// `limit` keys whose last page is partial, checked after every
/// operation. A fresh or re-inserted row must read all zero.
template <typename T>
void run_operation_stream(std::size_t row_len, std::uint64_t limit,
                          std::uint64_t seed) {
  PagedRows<T> rows(row_len);
  ASSERT_EQ(rows.row_len(), row_len);
  std::map<std::uint64_t, std::vector<T>> ref;
  Rng rng(seed);
  const std::vector<T> zero(row_len);
  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    const std::uint64_t key = rng.below(limit);
    const std::uint64_t kind = rng.below(20);
    if (kind < 12) {
      const bool fresh = !ref.contains(key);
      T* row = rows.insert(key);
      auto& expect = ref.try_emplace(key, zero).first->second;
      if (fresh) {
        ASSERT_TRUE(same_row<T>({row, row_len}, zero));
      }
      const std::size_t at = rng.below(row_len);
      row[at] = expect[at] = element<T>(rng.below(4));
    } else if (kind < 16) {
      rows.erase(key);
      ref.erase(key);
    } else if (kind < 19) {
      // Lookups past the highest key read nothing and grow nothing.
      const std::size_t pages = rows.pages();
      const std::uint64_t far = limit + rng.below(4 * limit);
      EXPECT_FALSE(rows.contains(far));
      EXPECT_EQ(rows.find(far), nullptr);
      EXPECT_EQ(std::as_const(rows).find(std::uint64_t{1} << 62), nullptr);
      EXPECT_EQ(rows.pages(), pages);
    } else {
      rows.clear();
      ref.clear();
      EXPECT_EQ(rows.pages(), 0u);
    }
    expect_same_as_reference(rows, ref, limit);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Row length 1 (the oracle image): 512 words per page, 2.5 pages.
TEST(PagedRows, WordRowsMatchAnOrderedMapReference) {
  run_operation_stream<std::int64_t>(1, 1300, 11);
}

// serve_dmmpc's CopyStore row: r = 5 copies of 16 bytes, 32 rows per
// page, 3.5 pages.
TEST(PagedRows, CopyRowsMatchAnOrderedMapReference) {
  run_operation_stream<Pair>(5, 112, 12);
}

// ida_wide's share row: d = 20 shares times 6 blocks plus one flag word,
// 4 rows per page, the last page holding 2.
TEST(PagedRows, ShareRowsMatchAnOrderedMapReference) {
  run_operation_stream<std::int64_t>(121, 38, 13);
}

// Pages hold whole rows up to 4 KiB, at least one row, a power of two.
TEST(PagedRows, PagesHoldWholeRowsUpToFourKiB) {
  const auto pages_for = [](auto rows, std::uint64_t key) {
    (void)rows.insert(key);
    return rows.pages();
  };
  EXPECT_EQ(pages_for(PagedRows<std::int64_t>(1), 511), 1u);
  EXPECT_EQ(pages_for(PagedRows<std::int64_t>(1), 512), 2u);
  EXPECT_EQ(pages_for(PagedRows<std::uint32_t>(1), 1023), 1u);
  EXPECT_EQ(pages_for(PagedRows<Pair>(5), 31), 1u);
  EXPECT_EQ(pages_for(PagedRows<Pair>(5), 32), 2u);
  EXPECT_EQ(pages_for(PagedRows<std::int64_t>(121), 3), 1u);
  EXPECT_EQ(pages_for(PagedRows<std::int64_t>(121), 4), 2u);
  EXPECT_EQ(pages_for(PagedRows<std::int64_t>(1000), 1), 2u);
}

/// A keyed-row frame as pram::put_rows lays it out, built by hand.
class RowFrame {
 public:
  RowFrame& u64(std::uint64_t v) {
    pram::put_u64(sink_, v);
    return *this;
  }
  RowFrame& row(std::span<const std::int64_t> words) {
    sink_.write(words.data(), words.size_bytes());
    return *this;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return sink_.bytes();
  }

 private:
  pram::BufferSink sink_;
};

// put_rows writes (count, then key and raw row bytes ascending), and
// get_rows restores exactly that, replacing what the table held.
TEST(PagedRowsFraming, RoundTripsTheAscendingKeyFrame) {
  PagedRows<std::int64_t> rows(2);
  const std::int64_t row9[] = {7, -1};
  const std::int64_t row2[] = {0, 0};
  std::copy_n(row9, 2, rows.insert(9));
  std::copy_n(row2, 2, rows.insert(2));
  pram::BufferSink sink;
  pram::put_rows(sink, rows);
  RowFrame expected;
  expected.u64(2).u64(2).row(row2).u64(9).row(row9);
  EXPECT_TRUE(std::ranges::equal(sink.bytes(), expected.bytes()));

  PagedRows<std::int64_t> restored(2);
  (void)restored.insert(4);
  pram::BufferSource source(sink.bytes());
  ASSERT_TRUE(pram::get_rows(source, restored, 10));
  EXPECT_TRUE(source.exhausted());
  std::map<std::uint64_t, std::vector<std::int64_t>> ref = {
      {2, {0, 0}}, {9, {7, -1}}};
  expect_same_as_reference(restored, ref, 12);
}

// Every frame no put_rows call writes is rejected.
TEST(PagedRowsFraming, RejectsFramesNoSnapshotWrites) {
  const std::int64_t a[] = {1, 2};
  const std::int64_t b[] = {3, 4};
  const auto rejects = [](const RowFrame& frame, std::uint64_t limit) {
    PagedRows<std::int64_t> rows(2);
    pram::BufferSource source(frame.bytes());
    return !pram::get_rows(source, rows, limit,
                           [](std::span<const std::int64_t> row) {
                             return row[0] != 99;
                           });
  };
  EXPECT_FALSE(rejects(RowFrame().u64(2).u64(1).row(a).u64(3).row(b), 4));
  EXPECT_TRUE(rejects(RowFrame().u64(2).u64(3).row(a).u64(3).row(b), 4))
      << "repeated key";
  EXPECT_TRUE(rejects(RowFrame().u64(2).u64(3).row(a).u64(1).row(b), 4))
      << "descending key";
  EXPECT_TRUE(rejects(RowFrame().u64(1).u64(4).row(a), 4)) << "key at limit";
  EXPECT_TRUE(rejects(RowFrame().u64(5).u64(0).row(a), 4))
      << "count over limit";
  EXPECT_TRUE(rejects(RowFrame().u64(1).u64(0).row({a, 1}), 4))
      << "short row";
  const std::int64_t bad[] = {99, 0};
  EXPECT_TRUE(rejects(RowFrame().u64(2).u64(0).row(a).u64(2).row(bad), 4))
      << "row check";
}

// ---------------------------------------------------------- scratch map ----

/// `count` keys drawn from `rng`, each followed by copies that differ
/// from it only in the top three bits, as EdgeKeys do when they name the
/// same tree position in another tree kind or direction.
template <typename Key>
std::vector<Key> scratch_keys(std::size_t count, Rng& rng) {
  constexpr int kBits = 8 * sizeof(Key);
  std::vector<Key> keys;
  for (std::size_t i = 0; i < count; ++i) {
    const auto base = static_cast<Key>(rng.next() >> 3 >> (64 - kBits));
    for (Key top = 0; top < 8; ++top) {
      keys.push_back(base | static_cast<Key>(top << (kBits - 3)));
    }
  }
  keys.push_back(0);
  keys.push_back(static_cast<Key>(~Key{0}));
  return keys;
}

/// One seeded stream of steps: each clears the map, reserves for a few
/// entries and then runs a random mix of try_emplace (fresh and repeated,
/// the value bumped through the returned pointer) and find, growing past
/// its reservation as steps lengthen. After every operation the map
/// agrees with a std::map and touched() lists the live keys in insertion
/// order.
template <typename Key>
void run_scratch_map_stream(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Key> keys = scratch_keys<Key>(32, rng);
  ScratchMap<Key, std::uint32_t> map;
  std::map<Key, std::uint32_t> ref;
  std::vector<Key> order;
  for (std::uint64_t step = 0; step < 32; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    map.clear();
    ref.clear();
    order.clear();
    map.reserve(4);
    const std::uint64_t ops = rng.below(16 * (step + 1));
    for (std::uint64_t op = 0; op < ops; ++op) {
      const Key key = keys[rng.below(keys.size())];
      if (rng.below(3) < 2) {
        const auto value = static_cast<std::uint32_t>(rng.next());
        const auto [got, fresh] = map.try_emplace(key, value);
        const auto [it, ref_fresh] = ref.try_emplace(key, value);
        ASSERT_EQ(fresh, ref_fresh) << key;
        ASSERT_EQ(*got, it->second) << key;
        if (fresh) {
          order.push_back(key);
        } else {
          ++*got;
          ++it->second;
        }
      } else {
        const std::uint32_t* got = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << key;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << key;
        }
      }
      ASSERT_EQ(map.size(), order.size());
      ASSERT_EQ(map.touched().size(), order.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t slot = map.touched()[i];
        ASSERT_EQ(map.key_at(slot), order[i]) << i;
        ASSERT_EQ(map.value_at(slot), ref.at(order[i])) << i;
      }
    }
  }
}

TEST(ScratchMap, ThirtyTwoBitKeysMatchAnOrderedMapReference) {
  run_scratch_map_stream<std::uint32_t>(41);
}

TEST(ScratchMap, SixtyFourBitKeysMatchAnOrderedMapReference) {
  run_scratch_map_stream<std::uint64_t>(42);
}

// A tag keeps the epoch of its last insert. Across 2^16 + 1 clears that
// never touch it again, the epoch passes through every value, so a tag
// not reset at the wrap would read live again at its old epoch.
TEST(ScratchMap, NoEntryOutlivesItsClearAcrossTheEpochWrap) {
  ScratchMap<std::uint32_t, std::uint32_t> map;
  map.try_emplace(7, 70);
  map.try_emplace(9, 90);
  for (std::uint32_t c = 0; c <= (1u << 16); ++c) {
    map.clear();
    ASSERT_EQ(map.find(7), nullptr) << c;
    ASSERT_EQ(map.find(9), nullptr) << c;
    ASSERT_EQ(map.size(), 0u);
    // Another key each clear keeps the table in use across the wrap.
    const auto [got, fresh] = map.try_emplace(1000 + c % 5, c);
    ASSERT_TRUE(fresh) << c;
    ASSERT_EQ(*got, c);
  }
  const auto [got, fresh] = map.try_emplace(7, 71);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(*got, 71u);
  ASSERT_EQ(map.touched().size(), 2u);
  EXPECT_EQ(map.key_at(map.touched()[1]), 7u);
}

// -------------------------------------------------------------- bitset ----

TEST(Bitset, SetTestReset) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_TRUE(bs.none());
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 3u);
  bs.reset(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(Bitset, SetAllRespectsSize) {
  DynamicBitset bs(70);
  bs.set_all();
  EXPECT_EQ(bs.count(), 70u);
}

TEST(Bitset, ConstructAllOnes) {
  DynamicBitset bs(65, true);
  EXPECT_EQ(bs.count(), 65u);
}

TEST(Bitset, FindNextScansCorrectly) {
  DynamicBitset bs(200);
  bs.set(3);
  bs.set(77);
  bs.set(199);
  EXPECT_EQ(bs.find_next(0), 3u);
  EXPECT_EQ(bs.find_next(3), 3u);
  EXPECT_EQ(bs.find_next(4), 77u);
  EXPECT_EQ(bs.find_next(78), 199u);
  EXPECT_EQ(bs.find_next(200), 200u);
  bs.reset(199);
  EXPECT_EQ(bs.find_next(78), 200u);
}

TEST(Bitset, FindNextIterationVisitsAllSetBits) {
  DynamicBitset bs(500);
  std::set<std::size_t> expected;
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.below(500);
    bs.set(v);
    expected.insert(v);
  }
  std::set<std::size_t> visited;
  for (std::size_t i = bs.find_next(0); i < bs.size(); i = bs.find_next(i + 1)) {
    visited.insert(i);
  }
  EXPECT_EQ(visited, expected);
}

// ------------------------------------------------------------ executor ----

// run_with's partition is a pure function of (n, workers): chunk c covers
// [c * ceil(n / w), min(n, (c + 1) * ceil(n / w))) and receives index c,
// empty chunks are not invoked, and every index is visited exactly once.
// Schemes index their per-chunk tallies by that argument.
TEST(Executor, RunWithPartitionsIntoIndexedContiguousChunks) {
  constexpr std::size_t kUnset = ~std::size_t{0};
  Executor executor;
  for (const std::size_t n : {0u, 1u, 5u, 4096u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      std::vector<std::atomic<int>> visits(n);
      std::vector<std::pair<std::size_t, std::size_t>> ranges(
          workers, {kUnset, kUnset});
      std::atomic<bool> bad_chunk{false};
      executor.run_with(
          n, workers,
          [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
            if (chunk >= workers) {
              bad_chunk = true;
              return;
            }
            ranges[chunk] = {lo, hi};
            for (std::size_t i = lo; i < hi; ++i) {
              visits[i].fetch_add(1);
            }
          });
      EXPECT_FALSE(bad_chunk) << "n=" << n << " w=" << workers;
      const std::size_t per = (n + workers - 1) / workers;
      for (std::size_t c = 0; c < workers; ++c) {
        const std::size_t lo = c * per;
        const std::size_t hi = std::min(n, lo + per);
        const auto want = lo < hi ? std::make_pair(lo, hi)
                                  : std::make_pair(kUnset, kUnset);
        EXPECT_EQ(ranges[c], want)
            << "n=" << n << " w=" << workers << " chunk " << c;
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " index " << i;
      }
    }
  }
}

// Chunks go to whichever thread claims them first, so back-to-back
// dispatches race late pool threads from the previous dispatch against
// the next one. Every chunk must still run exactly once, with its own
// range, whatever the worker count (the pool grows as it rises).
TEST(Executor, BackToBackDispatchesServeEveryChunkOnce) {
  Executor executor;
  std::vector<std::size_t> calls(9);
  for (std::size_t round = 0; round < 3000; ++round) {
    const std::size_t n = 1 + round % 37;
    const std::size_t workers = 2 + round % 8;
    const std::size_t per = (n + workers - 1) / workers;
    std::vector<std::atomic<int>> visits(n);
    std::fill(calls.begin(), calls.end(), 0);
    std::atomic<bool> bad_range{false};
    executor.run_with(
        n, workers, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          if (chunk >= calls.size() || lo != chunk * per ||
              hi != std::min(n, lo + per)) {
            bad_range = true;
            return;
          }
          ++calls[chunk];
          for (std::size_t i = lo; i < hi; ++i) {
            visits[i].fetch_add(1);
          }
        });
    ASSERT_FALSE(bad_range) << "round " << round;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      ASSERT_EQ(calls[c], c * per < n && c < workers ? 1u : 0u)
          << "round " << round << " chunk " << c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(Executor, PlanWorkersHonoursTheOverride) {
  struct OverrideGuard {
    ~OverrideGuard() { set_parallel_workers_override(0); }
  } guard;
  const Executor executor;
  set_parallel_workers_override(3);
  EXPECT_EQ(executor.plan_workers(4096), 3u);
  EXPECT_EQ(executor.plan_workers(2), 2u);  // never more chunks than items
  EXPECT_EQ(executor.plan_workers(1), 1u);
  set_parallel_workers_override(1);
  EXPECT_EQ(executor.plan_workers(4096), 1u);
  set_parallel_workers_override(0);
  EXPECT_EQ(executor.plan_workers(8), 1u);  // auto: tiny fan-outs stay serial
}

// --------------------------------------------------------------- stats ----

TEST(Stats, RunningStatsBasics) {
  RunningStats rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_NEAR(rs.mean(), 5.0, 1e-12);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  Rng rng(33);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

// ----------------------------------------------------------------- fit ----

TEST(Fit, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, IdentifiesLogShape) {
  std::vector<double> n;
  std::vector<double> y;
  for (double v : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0}) {
    n.push_back(v);
    y.push_back(3.0 + 2.5 * std::log2(v));
  }
  EXPECT_EQ(best_shape(n, y), "log n");
}

TEST(Fit, IdentifiesLogSqOverLoglogShape) {
  std::vector<double> n;
  std::vector<double> y;
  for (double v : {16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    const double l = std::log2(v);
    n.push_back(v);
    y.push_back(1.0 + 0.7 * l * l / std::log2(l));
  }
  EXPECT_EQ(best_shape(n, y), "log^2 n/loglog n");
}

TEST(Fit, IdentifiesConstantShape) {
  std::vector<double> n{16, 64, 256, 1024, 4096};
  std::vector<double> y{5.0, 5.0, 5.0, 5.0, 5.0};
  const auto fits = fit_shapes(n, y);
  // All shapes fit a constant perfectly with slope ~0; the constant shape
  // must be among the ties at R^2 = 1.
  EXPECT_NEAR(fits.front().fit.r_squared, 1.0, 1e-9);
}

// --------------------------------------------------------------- table ----

TEST(Table, RendersAlignedAsciiAndCsv) {
  Table t({"scheme", "n", "time"});
  t.set_title("demo");
  t.add_row({std::string("HP-2DMOT"), std::int64_t{256}, 12.5});
  t.add_row({std::string("LPP"), std::int64_t{1024}, 99.125});
  const auto s = t.to_string(2);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("HP-2DMOT"), std::string::npos);
  EXPECT_NE(s.find("99.12"), std::string::npos);
  const auto csv = t.to_csv(3);
  EXPECT_NE(csv.find("scheme,n,time"), std::string::npos);
  EXPECT_NE(csv.find("LPP,1024,99.125"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
}

// ----------------------------------------------------------- strong id ----

TEST(StrongId, DistinctTypesAndOrdering) {
  const ProcId p1(3);
  const ProcId p2(5);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(p1.value(), 3u);
  EXPECT_EQ(p1.index(), 3u);
  static_assert(!std::is_convertible_v<ProcId, ModuleId>);
  static_assert(!std::is_convertible_v<std::uint32_t, ProcId>);
}

// ----------------------------------------------------------- stopwatch ---

TEST(Stopwatch, FakeClockMakesElapsedExact) {
  set_fake_clock_override(/*start_ns=*/500, /*tick_ns=*/10);
  ASSERT_TRUE(fake_clock_active());
  // Construction reads the clock once; each elapsed query reads it once
  // more, so consecutive reads advance by exactly one tick.
  Stopwatch watch;
  EXPECT_EQ(watch.elapsed_ns(), 10u);
  EXPECT_EQ(watch.elapsed_ns(), 20u);
  watch.restart();
  EXPECT_EQ(watch.elapsed_ns(), 10u);
  // elapsed_seconds() is one more clock query, so one more tick.
  EXPECT_DOUBLE_EQ(watch.elapsed_seconds(), 20e-9);
  clear_fake_clock_override();
  EXPECT_FALSE(fake_clock_active());
}

TEST(Stopwatch, RealClockIsMonotone) {
  const Stopwatch watch;
  const auto first = watch.elapsed_ns();
  const auto second = watch.elapsed_ns();
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace pramsim::util
