// Experiment M1: microbenchmarks of the library's hot paths — map
// queries, protocol rounds, packet routing, GF(256) coding, P-RAM
// stepping. These are engineering numbers for users of the library, not
// model quantities. Self-timed (no external benchmark dependency) and
// mirrored to BENCH_micro.json via bench::Reporter like every other
// experiment binary.
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "durability/crc32.hpp"
#include "ida/dispersal.hpp"
#include "ida/gf256.hpp"
#include "majority/scheduler.hpp"
#include "memmap/memory_map.hpp"
#include "network/paths.hpp"
#include "network/router.hpp"
#include "pram/machine.hpp"
#include "pram/plan_builder.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
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

/// `m` rescaled from calls to the `items` items each call processed.
Measurement per_item(Measurement m, std::uint64_t items) {
  m.iterations *= items;
  m.ns_per_op /= static_cast<double>(items);
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

  // ---- IDA region-width sweep ----------------------------------------
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
    // The checkpoint/WAL frame check over a 64 KiB block and a 1 MiB
    // checkpoint stream block: the dispatching entry (the carry-less-
    // multiply kernel on hosts with PCLMULQDQ), then the slicing-by-8
    // loop it falls back to, in bytes/s.
    util::Rng rng(4);
    std::vector<std::uint8_t> bytes(std::size_t{1} << 20);
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    for (const auto& [size, label] :
         {std::pair{std::size_t{1} << 16, "64 KiB"},
          std::pair{std::size_t{1} << 20, "1 MiB"}}) {
      const auto m = measure([&] {
        do_not_optimize(durability::crc32(bytes.data(), size));
      }, 4);
      add_row(table, "crc32_block", label, m, 1.0,
              static_cast<double>(size));
      const auto ms = measure([&] {
        durability::Crc32 crc;
        crc.update_sliced(bytes.data(), size);
        do_not_optimize(crc.value());
      }, 4);
      add_row(table, "crc32_block_sliced", label, ms, 1.0,
              static_cast<double>(size));
    }
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
    // A step's placement, in ns per variable: copies_into one variable at
    // a time, then one copies_batch call over the same keys (HashedMap's
    // AVX2 kernel on hosts that have it), at serve_dmmpc's map and at
    // ida_wide's share placement.
    struct Geometry {
      std::uint64_t m;
      std::uint32_t modules;
      std::uint32_t r;
      const char* params;
    };
    constexpr std::size_t kKeys = 4096;
    for (const Geometry& g :
         {Geometry{1U << 18, 1U << 18, 5, "m=M=2^18 r=5"},
          Geometry{104'858, 1U << 20, 20, "blocks=104858 M=2^20 d=20"}}) {
      const memmap::HashedMap map(g.m, g.modules, g.r, 17);
      util::Rng rng(9);
      std::vector<VarId> keys(kKeys);
      for (auto& key : keys) {
        key = VarId(static_cast<std::uint32_t>(rng.below(g.m)));
      }
      std::vector<ModuleId> rows(kKeys * g.r);
      const auto each = measure([&] {
        for (std::size_t i = 0; i < kKeys; ++i) {
          map.copies_into(keys[i], std::span(rows).subspan(i * g.r, g.r));
        }
        do_not_optimize(rows);
      }, 1);
      add_row(table, "hashed_map_copies", g.params, per_item(each, kKeys), g.r);
      const auto batch = measure([&] {
        map.copies_batch(keys, rows);
        do_not_optimize(rows);
      }, 1);
      add_row(table, "hashed_map_copies_batch", g.params,
              per_item(batch, kKeys), g.r);
    }
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

  {
    // PlanBuilder at the benchmark's batch shape, in ns per access: 64
    // batches of 4,096 accesses over m = 2^18 (write fraction 0.5), built
    // in turn through the batch entry, then their combined lists through
    // the combined-step entry (pram::Machine's and the cache's).
    constexpr std::uint32_t kAccesses = 4096;
    constexpr std::uint64_t kVars = 1 << 18;
    pram::FlatMemory memory(kVars);
    pram::PlanBuilder builder;
    for (const auto family :
         {pram::TraceFamily::kZipfian, pram::TraceFamily::kUniform}) {
      util::Rng rng(12);
      const pram::TraceParams params{.write_fraction = 0.5,
                                     .zipf_exponent = 1.1};
      std::vector<pram::AccessBatch> batches;
      std::vector<std::vector<VarId>> reads;
      std::vector<std::vector<pram::VarWrite>> writes;
      for (int b = 0; b < 64; ++b) {
        batches.push_back(
            pram::make_batch(family, kAccesses, kVars, rng, params));
        const auto& plan = builder.build(batches.back(), memory);
        reads.emplace_back(plan.reads.begin(), plan.reads.end());
        writes.emplace_back(plan.writes.begin(), plan.writes.end());
      }
      const std::string name = family == pram::TraceFamily::kZipfian
                                   ? "zipf(1.1) m=2^18"
                                   : "uniform m=2^18";
      std::size_t next = 0;
      const auto batch = measure([&] {
        do_not_optimize(builder.build(batches[next++ % batches.size()],
                                      memory).requests.size());
      }, 1);
      add_row(table, "plan_build", "batch " + name,
              per_item(batch, kAccesses), 1.0);
      const auto combined = measure([&] {
        const std::size_t b = next++ % batches.size();
        do_not_optimize(
            builder.build(reads[b], writes[b], memory).requests.size());
      }, 1);
      add_row(table, "plan_build", "combined " + name,
              per_item(combined, kAccesses), 1.0);
    }
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
    majority::ScheduleResult out;
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
    majority::ScheduleResult out;
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
    // The 2DMOT engine's route writer at machine_sort_2dmot's side: 1,024
    // round trips via the column root (61 edges each) written over one
    // reused buffer per call, through the dispatching entry (the AVX2
    // body on hosts that have it), then the scalar loop; round trips/s
    // and edge bytes/s.
    const std::uint32_t S = 1024;
    util::Rng rng(10);
    std::vector<net::Route> routes;
    for (std::uint32_t i = 0; i < 1024; ++i) {
      const auto proc = static_cast<std::uint32_t>(rng.below(S));
      const auto row = static_cast<std::uint32_t>(rng.below(S));
      const auto col = static_cast<std::uint32_t>(rng.below(S));
      routes.push_back(net::hp_route(S, proc, row, col));
    }
    net::Path path(net::round_trip_hops(routes[0]));
    const double edge_bytes = 8.0 * static_cast<double>(path.size()) *
                              static_cast<double>(routes.size());
    const auto m = measure([&] {
      for (const net::Route& route : routes) {
        net::write_round_trip(route, path);
      }
      do_not_optimize(path);
    }, 1);
    add_row(table, "mot_round_trip_fill", "S=1024", m,
            static_cast<double>(routes.size()), edge_bytes);
    const auto ms = measure([&] {
      for (const net::Route& route : routes) {
        net::write_round_trip_scalar(route, path);
      }
      do_not_optimize(path);
    }, 1);
    add_row(table, "mot_round_trip_fill_scalar", "S=1024", ms,
            static_cast<double>(routes.size()), edge_bytes);
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
