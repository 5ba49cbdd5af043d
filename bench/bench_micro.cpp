// Experiment M1: microbenchmarks of the library's hot paths — map
// queries, protocol rounds, packet routing, GF(256) coding, P-RAM
// stepping. These are engineering numbers for users of the library, not
// model quantities. Self-timed (no external benchmark dependency) and
// mirrored to BENCH_micro.json via bench::Reporter like every other
// experiment binary.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/crc32.hpp"
#include "ida/dispersal.hpp"
#include "ida/gf256.hpp"
#include "majority/copy_store.hpp"
#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace pramsim;

namespace {

/// Keep the optimizer honest about a computed value.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Measurement {
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
};

/// Run `op` in growing batches until >= 20 ms of wall time has been
/// measured (after a warmup batch), then report mean ns per call.
template <typename F>
Measurement measure(F&& op, std::uint64_t batch = 64) {
  for (std::uint64_t i = 0; i < batch; ++i) {
    op();  // warmup (page-in, branch training)
  }
  Measurement m;
  double elapsed_ns = 0.0;
  while (elapsed_ns < 2e7 && m.iterations < (1ULL << 30)) {
    const util::Stopwatch watch;
    for (std::uint64_t i = 0; i < batch; ++i) {
      op();
    }
    elapsed_ns += static_cast<double>(watch.elapsed_ns());
    m.iterations += batch;
    batch *= 2;  // amortize clock overhead on fast kernels
  }
  m.ns_per_op = elapsed_ns / static_cast<double>(m.iterations);
  return m;
}

/// `items_per_op` is the logical unit count one call processes (words
/// voted, words recoded, packets routed); bytes/s prices the same call in
/// payload bytes (8 per word) so the region-width sweeps read directly as
/// memory throughput.
void add_row(util::Table& table, const std::string& kernel,
             const std::string& params, const Measurement& m,
             double items_per_op, double bytes_per_op = 0.0) {
  const double per_ns = 1e9 / std::max(m.ns_per_op, 1e-9);
  table.add_row({kernel, params, static_cast<std::int64_t>(m.iterations),
                 m.ns_per_op, items_per_op * per_ns, bytes_per_op * per_ns});
}

}  // namespace

int main() {
  bench::Reporter reporter(
      "micro", "hot-path microbenchmarks (engineering numbers)",
      "map queries, protocol rounds, packet routing, GF(256) coding and "
      "P-RAM stepping costs on this host");

  util::Table table(
      {"kernel", "params", "iterations", "ns/op", "items/s", "bytes/s"});
  table.set_title("hot paths, self-timed (>= 20 ms per kernel)");

  {
    util::Rng rng(1);
    std::vector<std::uint8_t> xs(1024);
    for (auto& x : xs) {
      x = static_cast<std::uint8_t>(rng.below(256));
    }
    std::size_t i = 0;
    const auto m = measure([&] {
      do_not_optimize(ida::GF256::mul(xs[i % xs.size()],
                                      xs[(i + 7) % xs.size()]));
      ++i;
    });
    add_row(table, "gf256_mul", "-", m, 1.0);
  }

  for (const std::uint32_t b : {8u, 16u, 32u}) {
    ida::Disperser disperser({b, 2 * b});
    util::Rng rng(2);
    std::vector<pram::Word> block(b);
    for (auto& w : block) {
      w = static_cast<pram::Word>(rng.next());
    }
    const auto m = measure([&] {
      do_not_optimize(disperser.encode_words(block));
    }, 8);
    add_row(table, "ida_encode_words", "b=" + std::to_string(b), m, b,
            8.0 * b);

    const auto shares = disperser.encode_words(block);
    std::vector<std::uint32_t> indices(b);
    std::vector<pram::Word> vals(b);
    for (std::uint32_t j = 0; j < b; ++j) {
      indices[j] = b + j;
      vals[j] = shares[b + j];
    }
    const auto mr = measure([&] {
      do_not_optimize(disperser.recover_words(indices, vals));
    }, 8);
    add_row(table, "ida_recover_words", "b=" + std::to_string(b), mr, b,
            8.0 * b);
  }

  // ---- region-width sweeps (the PR's tentpole numbers) --------------
  // Majority vote, healthy path: one full certification sweep over 2^14
  // stored words at r = 5 copies. Width 1 is today's word-at-a-time mode
  // (one vote_region call per word — the W = 1 store is bit-identical to
  // the classic layout); wider regions certify whole spans with memcmp.
  for (const std::uint32_t w : {1u, 8u, 64u}) {
    const std::uint64_t m_words = 1 << 14;
    const std::uint32_t r = 5;
    majority::CopyStore store(m_words, r, w);
    util::Rng rng(12);
    for (std::uint64_t v = 0; v < m_words; ++v) {
      const auto value = static_cast<pram::Word>(rng.next());
      for (std::uint32_t copy = 0; copy < r; ++copy) {
        store.write(VarId(static_cast<std::uint32_t>(v)), copy, value, 1);
      }
    }
    const std::uint64_t all_mask = (1ULL << r) - 1;
    const auto m = measure([&] {
      std::uint64_t unanimous = 0;
      for (std::uint64_t region = 0; region < store.num_regions();
           ++region) {
        unanimous += store.vote_region(region, all_mask) >= 0 ? 1 : 0;
      }
      do_not_optimize(unanimous);
    }, 1);
    add_row(table, "majority_vote_sweep",
            "m=2^14 r=5 w=" + std::to_string(w), m,
            static_cast<double>(m_words), 8.0 * static_cast<double>(m_words));
  }

  // IDA recode, healthy path: 64 words through b = 8 blocks. Width 1 is
  // today's per-block word mode (encode_words / recover_words per block);
  // widths 8 and 64 recode 1 and 8 blocks per bulk codec call.
  for (const std::uint32_t w : {1u, 8u, 64u}) {
    const std::uint32_t b = 8;
    const std::uint32_t d = 2 * b;
    const std::uint32_t blocks = 8;  // 64 words total per op
    const std::uint32_t per_call = std::max(1u, w / b);
    ida::Disperser disperser({b, d});
    util::Rng rng(13);
    std::vector<pram::Word> words(blocks * b);
    for (auto& word : words) {
      word = static_cast<pram::Word>(rng.next());
    }
    std::vector<pram::Word> shares(static_cast<std::size_t>(d) * blocks);
    const std::string params = "b=8 blocks=8 w=" + std::to_string(w);
    const auto me = measure([&] {
      if (w == 1) {
        for (std::uint32_t t = 0; t < blocks; ++t) {
          do_not_optimize(disperser.encode_words(
              {words.data() + static_cast<std::size_t>(t) * b, b}));
        }
      } else {
        for (std::uint32_t t = 0; t < blocks; t += per_call) {
          disperser.encode_regions(
              words.data() + static_cast<std::size_t>(t) * b, per_call,
              shares.data() + t, blocks);
        }
        do_not_optimize(shares);
      }
    }, 4);
    add_row(table, "ida_encode_region", params, me, 8.0 * b, 64.0 * b);

    // Stage the share spans once (stride = blocks), then time decode.
    for (std::uint32_t t = 0; t < blocks; t += per_call) {
      disperser.encode_regions(words.data() + static_cast<std::size_t>(t) * b,
                               std::max(1u, per_call), shares.data() + t,
                               blocks);
    }
    std::vector<std::uint32_t> indices(b);
    for (std::uint32_t j = 0; j < b; ++j) {
      indices[j] = j;
    }
    std::vector<pram::Word> out(blocks * b);
    std::vector<pram::Word> vals(b);
    const auto md = measure([&] {
      if (w == 1) {
        for (std::uint32_t t = 0; t < blocks; ++t) {
          for (std::uint32_t j = 0; j < b; ++j) {
            vals[j] = shares[static_cast<std::size_t>(j) * blocks + t];
          }
          do_not_optimize(disperser.recover_words(indices, vals));
        }
      } else {
        for (std::uint32_t t = 0; t < blocks; t += per_call) {
          disperser.decode_regions(
              indices, shares.data() + t, blocks, per_call,
              out.data() + static_cast<std::size_t>(t) * b);
        }
        do_not_optimize(out);
      }
    }, 4);
    add_row(table, "ida_decode_region", params, md, 8.0 * b, 64.0 * b);
  }

  // IDA step-batched recode at the benchmark's ida_wide shape (n = 1024,
  // b = 10, d = 20): one serve step decodes every plan group, about 1019
  // blocks, in one call, and re-encodes its written blocks, about 512, in
  // another. Items and bytes count the b data words of each block.
  {
    const std::uint32_t b = 10;
    const std::uint32_t d = 20;
    const std::uint32_t decode_blocks = 1019;
    const std::uint32_t encode_blocks = 512;
    ida::Disperser disperser({b, d});
    util::Rng rng(14);
    std::vector<pram::Word> spans(static_cast<std::size_t>(b) *
                                  decode_blocks);
    for (auto& word : spans) {
      word = static_cast<pram::Word>(rng.next());
    }
    std::vector<std::uint32_t> indices(b);
    for (std::uint32_t j = 0; j < b; ++j) {
      indices[j] = j;
    }
    std::vector<pram::Word> blocks(static_cast<std::size_t>(b) *
                                   decode_blocks);
    const auto md = measure([&] {
      disperser.decode_regions(indices, spans.data(), decode_blocks,
                               decode_blocks, blocks.data());
      do_not_optimize(blocks);
    }, 4);
    add_row(table, "ida_step_decode",
            "b=10 d=20 blocks=" + std::to_string(decode_blocks), md,
            static_cast<double>(b) * decode_blocks,
            8.0 * b * decode_blocks);

    std::vector<pram::Word> shares(static_cast<std::size_t>(d) *
                                   encode_blocks);
    const auto me = measure([&] {
      disperser.encode_regions(blocks.data(), encode_blocks, shares.data(),
                               encode_blocks);
      do_not_optimize(shares);
    }, 4);
    add_row(table, "ida_step_encode",
            "b=10 d=20 blocks=" + std::to_string(encode_blocks), me,
            static_cast<double>(b) * encode_blocks,
            8.0 * b * encode_blocks);
  }

  {
    // The checkpoint/WAL frame check over one 64 KiB stream block.
    util::Rng rng(4);
    std::vector<std::uint8_t> block(std::size_t{1} << 16);
    for (auto& byte : block) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    const auto m = measure([&] {
      do_not_optimize(durability::crc32(block.data(), block.size()));
    }, 4);
    add_row(table, "crc32_block", "64 KiB", m, 1.0,
            static_cast<double>(block.size()));
  }

  {
    memmap::HashedMap map(1 << 20, 1 << 16, 7, 5);
    std::array<ModuleId, 7> buf;
    std::uint32_t v = 0;
    const auto m = measure([&] {
      map.copies_into(VarId(v++ & ((1 << 20) - 1)), buf);
      do_not_optimize(buf);
    });
    add_row(table, "hashed_map_copies", "m=2^20 r=7", m, 7.0);
  }
  {
    memmap::TableMap map(1 << 16, 1 << 12, 7, 5);
    std::array<ModuleId, 7> buf;
    std::uint32_t v = 0;
    const auto m = measure([&] {
      map.copies_into(VarId(v++ & ((1 << 16) - 1)), buf);
      do_not_optimize(buf);
    });
    add_row(table, "table_map_copies", "m=2^16 r=7", m, 7.0);
  }

  for (const std::uint32_t n : {256u, 1024u, 4096u}) {
    auto inst = core::make_scheme({.kind = core::SchemeKind::kDmmpc, .n = n});
    util::Rng rng(7);
    const auto vars = rng.sample_without_replacement(inst.m, n);
    std::vector<majority::VarRequest> reqs;
    for (std::uint32_t i = 0; i < n; ++i) {
      reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
    }
    // MajorityMemory::serve's entry: the scratch-backed round into a
    // reused result.
    majority::EngineResult out;
    const auto m = measure([&] {
      inst.engine->run_step_into(reqs, out);
      do_not_optimize(out);
    }, 1);
    add_row(table, "dmmpc_engine_step", "n=" + std::to_string(n), m, n,
            8.0 * n);
  }

  // The 2DMOT engine's entry, which pram::Machine drives through
  // MajorityMemory::serve; n = 1024 is the benchmark's machine_sort_2dmot
  // size.
  for (const std::uint32_t n : {64u, 128u, 256u, 1024u}) {
    auto inst = core::make_scheme({.kind = core::SchemeKind::kHpMot, .n = n});
    util::Rng rng(8);
    const auto vars = rng.sample_without_replacement(inst.m, n);
    std::vector<majority::VarRequest> reqs;
    for (std::uint32_t i = 0; i < n; ++i) {
      reqs.push_back({VarId(static_cast<std::uint32_t>(vars[i])), ProcId(i)});
    }
    majority::EngineResult out;
    const auto m = measure([&] {
      inst.engine->run_step_into(reqs, out);
      do_not_optimize(out);
    }, 1);
    add_row(table, "mot_engine_step", "n=" + std::to_string(n), m, n,
            8.0 * n);
  }

  {
    const std::uint32_t S = 64;
    util::Rng rng(9);
    std::vector<net::Packet> proto(512);
    for (std::uint32_t p = 0; p < 512; ++p) {
      proto[p].id = p;
      proto[p].path = net::hp_request_path(
          S, static_cast<std::uint32_t>(rng.below(S)),
          static_cast<std::uint32_t>(rng.below(S)),
          static_cast<std::uint32_t>(rng.below(S)));
    }
    const auto m = measure([&] {
      auto packets = proto;
      do_not_optimize(net::route_all(packets));
    }, 1);
    add_row(table, "router_heavy_batch", "S=64 pkts=512", m, 512.0);
  }

  {
    const std::uint32_t n = 256;
    auto spec = pram::programs::prefix_sum(n);
    pram::MachineConfig cfg{.n_processors = n,
                            .m_shared_cells = spec.m_required,
                            .policy = pram::ConflictPolicy::kErew};
    const auto m = measure([&] {
      auto prog = pram::programs::prefix_sum(n);
      pram::Machine machine(cfg, std::move(prog.program));
      do_not_optimize(machine.run());
    }, 1);
    add_row(table, "pram_prefix_sum_run", "n=256", m, n);
  }

  bench::RunManifest manifest;
  manifest.scheme = "kernel sweep (see table rows)";
  manifest.backend = "inline kernels (no serve path)";
  reporter.set_manifest(manifest);

  reporter.table(table, 2);
  return 0;
}
