#include "memmap/memory_map.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/isa.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pramsim::memmap {

MemoryMap::MemoryMap(std::uint64_t m_vars, std::uint32_t n_modules,
                     std::uint32_t redundancy)
    : m_vars_(m_vars), n_modules_(n_modules), redundancy_(redundancy) {
  PRAMSIM_ASSERT(m_vars >= 1);
  PRAMSIM_ASSERT(n_modules >= 1);
  PRAMSIM_ASSERT(redundancy >= 1);
  PRAMSIM_ASSERT_MSG(redundancy <= n_modules,
                     "cannot place r distinct copies in fewer than r modules");
}

std::vector<ModuleId> MemoryMap::copies(VarId var) const {
  std::vector<ModuleId> out(redundancy());
  copies_into(var, out);
  return out;
}

void MemoryMap::copies_batch(std::span<const VarId> vars,
                             std::span<ModuleId> out) const {
  const std::uint32_t r = redundancy();
  PRAMSIM_ASSERT(out.size() == vars.size() * r);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    copies_into(vars[i], out.subspan(i * r, r));
  }
}

namespace {

/// Sample `r` distinct modules out of `M` into `out` using rejection; for
/// the r << M regime this is O(r) expected.
void sample_distinct_modules(util::Rng& rng, std::uint32_t n_modules,
                             std::span<ModuleId> out) {
  const std::size_t r = out.size();
  for (std::size_t i = 0; i < r; ++i) {
    while (true) {
      const auto candidate =
          static_cast<std::uint32_t>(rng.below(n_modules));
      bool fresh = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (out[j].value() == candidate) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        out[i] = ModuleId(candidate);
        break;
      }
    }
  }
}

}  // namespace

TableMap::TableMap(std::uint64_t m_vars, std::uint32_t n_modules,
                   std::uint32_t redundancy, std::uint64_t seed)
    : MemoryMap(m_vars, n_modules, redundancy),
      table_(m_vars * redundancy),
      load_(n_modules, 0) {
  util::Rng rng(seed);
  std::vector<ModuleId> buf(redundancy);
  for (std::uint64_t v = 0; v < m_vars; ++v) {
    sample_distinct_modules(rng, n_modules, buf);
    for (std::uint32_t i = 0; i < redundancy; ++i) {
      table_[v * redundancy + i] = buf[i].value();
      ++load_[buf[i].value()];
    }
  }
}

void TableMap::copies_into(VarId var, std::span<ModuleId> out) const {
  PRAMSIM_ASSERT(var.index() < num_vars());
  PRAMSIM_ASSERT(out.size() == redundancy());
  const std::uint64_t base = var.index() * redundancy();
  for (std::uint32_t i = 0; i < redundancy(); ++i) {
    out[i] = ModuleId(table_[base + i]);
  }
}

std::uint32_t TableMap::module_load(ModuleId module) const {
  PRAMSIM_ASSERT(module.index() < load_.size());
  return load_[module.index()];
}

std::uint32_t TableMap::max_module_load() const {
  return *std::max_element(load_.begin(), load_.end());
}

double TableMap::load_imbalance() const {
  const double ideal = static_cast<double>(num_vars()) * redundancy() /
                       static_cast<double>(num_modules());
  return ideal > 0.0 ? static_cast<double>(max_module_load()) / ideal : 0.0;
}

namespace {

#if defined(__x86_64__)

/// Copies per variable the AVX2 kernel keeps per lane; maps with more
/// place through copies_into.
constexpr std::uint32_t kMaxKernelCopies = 64;

template <int K>
__attribute__((target("avx2"))) inline __m256i rotl64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

/// Low 64 bits of x * c per lane (AVX2 multiplies only 32 x 32 -> 64).
__attribute__((target("avx2"))) inline __m256i mullo64(__m256i x,
                                                      std::uint64_t c) {
  const __m256i c_lo =
      _mm256_set1_epi64x(static_cast<long long>(c & 0xFFFFFFFFULL));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
                       _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(x, c_lo),
                          _mm256_slli_epi64(cross, 32));
}

/// SplitMix64's output function of an already advanced state.
__attribute__((target("avx2"))) inline __m256i splitmix(__m256i z) {
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              util::SplitMix64::kMul1);
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              util::SplitMix64::kMul2);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// HashedMap::copies_into's stream for four variables at once, one per
/// lane, over the whole groups of four in `vars`; returns how many
/// variables it placed. A lane is placed again by copies_into when its
/// stream leaves the straight line the kernel follows: the all-zero
/// state guard, a Lemire rejection (the low half of x * M below
/// 2^64 mod M), or a module the lane already holds.
__attribute__((target("avx2"))) std::size_t copies_batch_avx2(
    const HashedMap& map, std::uint64_t seed, std::span<const VarId> vars,
    std::span<ModuleId> out) {
  constexpr std::uint64_t kGamma = util::SplitMix64::kGamma;
  const std::uint32_t r = map.redundancy();
  const std::uint64_t n_modules = map.num_modules();
  const std::uint64_t threshold = (0 - n_modules) % n_modules;
  // Unsigned 64-bit order is signed order with the sign bits flipped.
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i below = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(threshold)), sign);
  const __m256i modules = _mm256_set1_epi64x(static_cast<long long>(n_modules));
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i seeds = _mm256_set1_epi64x(static_cast<long long>(seed));
  // A SplitMix64 seeded with s steps through s + (k+1)*gamma.
  __m256i gamma[4];
  for (std::uint64_t k = 0; k < 4; ++k) {
    gamma[k] = _mm256_set1_epi64x(static_cast<long long>((k + 1) * kGamma));
  }
  alignas(32) std::uint64_t drawn[kMaxKernelCopies][4];
  const std::size_t whole = vars.size() - vars.size() % 4;
  for (std::size_t i = 0; i < whole; i += 4) {
    // The per-variable SplitMix64 step seeds util::Rng, whose own
    // SplitMix64 fills the four Xoshiro256** state words.
    alignas(32) std::uint64_t keys[4];
    for (std::size_t lane = 0; lane < 4; ++lane) {
      PRAMSIM_ASSERT(vars[i + lane].index() < map.num_vars());
      keys[lane] = vars[i + lane].value() + 1ULL;
    }
    const __m256i var1 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(keys));
    const __m256i rng_seed = splitmix(_mm256_add_epi64(
        _mm256_xor_si256(seeds, mullo64(var1, kGamma)), gamma[0]));
    __m256i s0 = splitmix(_mm256_add_epi64(rng_seed, gamma[0]));
    __m256i s1 = splitmix(_mm256_add_epi64(rng_seed, gamma[1]));
    __m256i s2 = splitmix(_mm256_add_epi64(rng_seed, gamma[2]));
    __m256i s3 = splitmix(_mm256_add_epi64(rng_seed, gamma[3]));
    __m256i redo = _mm256_cmpeq_epi64(
        _mm256_or_si256(_mm256_or_si256(s0, s1), _mm256_or_si256(s2, s3)),
        _mm256_setzero_si256());
    for (std::uint32_t k = 0; k < r; ++k) {
      // Xoshiro256**: rotl(s1 * 5, 7) * 9, then the state update.
      const __m256i s1x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
      const __m256i rotated = rotl64<7>(s1x5);
      const __m256i x =
          _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
      const __m256i t = _mm256_slli_epi64(s1, 17);
      s2 = _mm256_xor_si256(s2, s0);
      s3 = _mm256_xor_si256(s3, s1);
      s1 = _mm256_xor_si256(s1, s2);
      s0 = _mm256_xor_si256(s0, s3);
      s2 = _mm256_xor_si256(s2, t);
      s3 = rotl64<45>(s3);
      // Lemire: x * M = module * 2^64 + lo, with M < 2^32 splitting x
      // into 32-bit halves.
      const __m256i lo_product = _mm256_mul_epu32(x, modules);
      const __m256i mid = _mm256_add_epi64(
          _mm256_mul_epu32(_mm256_srli_epi64(x, 32), modules),
          _mm256_srli_epi64(lo_product, 32));
      const __m256i module = _mm256_srli_epi64(mid, 32);
      const __m256i lo = _mm256_or_si256(_mm256_slli_epi64(mid, 32),
                                         _mm256_and_si256(lo_product, low32));
      redo = _mm256_or_si256(
          redo, _mm256_cmpgt_epi64(below, _mm256_xor_si256(lo, sign)));
      for (std::uint32_t j = 0; j < k; ++j) {
        redo = _mm256_or_si256(
            redo, _mm256_cmpeq_epi64(
                      module, _mm256_load_si256(
                                  reinterpret_cast<const __m256i*>(drawn[j]))));
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(drawn[k]), module);
    }
    const auto redo_lanes = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(redo)));
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::span<ModuleId> row = out.subspan((i + lane) * r, r);
      if (((redo_lanes >> lane) & 1U) != 0) {
        map.copies_into(vars[i + lane], row);
        continue;
      }
      for (std::uint32_t k = 0; k < r; ++k) {
        row[k] = ModuleId(static_cast<std::uint32_t>(drawn[k][lane]));
      }
    }
  }
  return whole;
}

#endif

}  // namespace

HashedMap::HashedMap(std::uint64_t m_vars, std::uint32_t n_modules,
                     std::uint32_t redundancy, std::uint64_t seed)
    : MemoryMap(m_vars, n_modules, redundancy), seed_(seed) {}

void HashedMap::copies_into(VarId var, std::span<ModuleId> out) const {
  PRAMSIM_ASSERT(var.index() < num_vars());
  PRAMSIM_ASSERT(out.size() == redundancy());
  // Per-variable deterministic stream: a processor can recompute any
  // variable's copy set locally in O(r) time, which is exactly the paper's
  // "simple computations within a processor" desideratum.
  util::SplitMix64 mixer(seed_ ^ (0x9E3779B97F4A7C15ULL * (var.value() + 1)));
  util::Rng rng(mixer.next());
  sample_distinct_modules(rng, num_modules(), out);
}

void HashedMap::copies_batch(std::span<const VarId> vars,
                             std::span<ModuleId> out) const {
  const std::uint32_t r = redundancy();
  PRAMSIM_ASSERT(out.size() == vars.size() * r);
  std::size_t placed = 0;
#if defined(__x86_64__)
  if (r <= kMaxKernelCopies && util::have_avx2()) {
    placed = copies_batch_avx2(*this, seed_, vars, out);
  }
#endif
  for (std::size_t i = placed; i < vars.size(); ++i) {
    copies_into(vars[i], out.subspan(i * r, r));
  }
}

}  // namespace pramsim::memmap
