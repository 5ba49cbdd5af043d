#include "core/schemes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/cached_memory.hpp"
#include "core/context_engines.hpp"
#include "core/mot_engine.hpp"
#include "hashing/mv_memory.hpp"
#include "ida/ida_memory.hpp"
#include "network/expander.hpp"
#include "network/topology.hpp"
#include "sortnet/batcher.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kHpMot: return "HP-2DMOT";
    case SchemeKind::kCrossbar: return "HP-crossbar";
    case SchemeKind::kLppMot: return "LPP-2DMOT";
    case SchemeKind::kDmmpc: return "HP-DMMPC";
    case SchemeKind::kUwMpc: return "UW-MPC";
    case SchemeKind::kAltBdn: return "Alt-BDN(sort)";
    case SchemeKind::kHbExpander: return "HB-expander";
    case SchemeKind::kRanade: return "Ranade-butterfly";
    case SchemeKind::kIda: return "Schuster-IDA";
    case SchemeKind::kHashed: return "MV-hashing";
  }
  return "???";
}

const std::vector<SchemeKind>& all_scheme_kinds() {
  static const std::vector<SchemeKind> kinds = {
      SchemeKind::kUwMpc,  SchemeKind::kAltBdn,     SchemeKind::kDmmpc,
      SchemeKind::kLppMot, SchemeKind::kCrossbar,   SchemeKind::kHpMot,
      SchemeKind::kHbExpander, SchemeKind::kRanade, SchemeKind::kIda,
      SchemeKind::kHashed,
  };
  return kinds;
}

namespace {

std::uint64_t vars_for(const SchemeSpec& spec) {
  const auto m = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(spec.n), spec.k)));
  return std::max<std::uint64_t>({m, spec.min_vars, spec.n});
}

double effective_eps(std::uint32_t n, std::uint64_t n_modules) {
  return std::log2(static_cast<double>(n_modules)) /
             std::log2(static_cast<double>(n)) -
         1.0;
}

/// Alt, Hagerup, Mehlhorn and Preparata (1987), as reviewed in the
/// paper's §1, realize each round of the Upfal-Wigderson protocol on a
/// bounded-degree network by SORTING the round's copy requests by
/// destination module (a Batcher network of depth log n (log n + 1)/2),
/// delivering along the sorted order, and returning replies the same way
/// — O(log n log m) total. Modeled at the round level: the rounds are the
/// real two-stage DMMPC schedule over an M = n, r = Theta(log m) map (the
/// MPC geometry the scheme assumes), and each round is charged the exact
/// depth of the concrete Batcher network plus 2 ceil(log2 n) delivery
/// hops. The comparator network itself is real and tested (src/sortnet);
/// only the per-comparator data movement is abstracted into the depth
/// charge, which is the quantity their analysis counts.
std::uint64_t alt_round_cycles(std::uint32_t n) {
  return sortnet::batcher_sort(n).depth() +
         2ULL * static_cast<std::uint64_t>(util::ilog2_ceil(n));
}

/// Herley and Bilardi (1988): deterministic simulation on bounded-degree
/// expander-based networks with redundancy r = Theta(log m / log log m)
/// (hb_c). The rounds are the real two-stage DMMPC schedule over an
/// M = n map at that redundancy; each round is charged the MEASURED
/// diameter of a concrete random 6-regular expander (an actual graph,
/// audited for connectivity, diameter and spectral gap — standing in for
/// HB's constructive expanders exactly as the paper describes them: same
/// asymptotics, better constants from randomness).
std::uint64_t hb_round_cycles(std::uint32_t n, std::uint64_t seed) {
  const net::RegularGraph graph(n, /*degree=*/6, seed);
  PRAMSIM_ASSERT_MSG(graph.connected(), "expander must be connected");
  return graph.diameter();
}

/// The engine a replicated kind runs: one per round model.
enum class RoundModel : std::uint8_t {
  kNone,       ///< not replicated (kIda, kHashed)
  kDmmpc,      ///< DMMPC rounds, each charged a fixed cycle count
  kMot,        ///< routed 2DMOT phases
  kButterfly,  ///< one butterfly sweep per step (Ranade)
};

}  // namespace

std::uint32_t hb_c(std::uint64_t m_vars) {
  PRAMSIM_ASSERT(m_vars >= 16);
  const double logm = std::log2(static_cast<double>(m_vars));
  const double loglogm = std::log2(logm);
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::ceil(logm / loglogm)));
}

SchemeInstance make_scheme(const SchemeSpec& spec) {
  PRAMSIM_ASSERT(spec.n >= 4);
  SchemeInstance inst;
  inst.kind = spec.kind;
  inst.name = to_string(spec.kind);
  inst.m = vars_for(spec);
  inst.guarantee = "deterministic worst-case";

  // A replicated kind sets its module count, c, round model and table
  // metadata; the shared tail below assembles the rest.
  RoundModel rounds = RoundModel::kNone;
  std::uint64_t round_cycles = 1;              // kDmmpc: per-round charge
  MotScheme placement = MotScheme::kHpLeaves;  // kMot: module placement
  const double nd = spec.n;
  switch (spec.kind) {
    case SchemeKind::kHpMot: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      // Square side: at least n (processors at the first n row roots),
      // at least ~n^((1+eps)/2), power of two.
      const auto target_side = static_cast<std::uint64_t>(
          std::llround(std::pow(nd, (1.0 + spec.eps) / 2.0)));
      const std::uint64_t side = std::max<std::uint64_t>(
          spec.n, util::next_pow2(std::max<std::uint64_t>(target_side, 4)));
      const std::uint64_t M = side * side;
      PRAMSIM_ASSERT_MSG(M <= inst.m,
                         "module count exceeds variables; raise k or min_vars");
      inst.n_modules = static_cast<std::uint32_t>(M);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      inst.c = memmap::lemma2_min_c(spec.b, spec.k,
                                    std::max(inst.eps_effective, 0.25));
      rounds = RoundModel::kMot;
      placement = MotScheme::kHpLeaves;
      inst.model = "DMBDN (2DMOT)";
      inst.time_unit = "cycles";
      inst.notes = "Theorem 3";
      break;
    }
    case SchemeKind::kCrossbar: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      const auto target = static_cast<std::uint64_t>(
          std::llround(std::pow(nd, 1.0 + spec.eps)));
      const std::uint64_t M = std::min<std::uint64_t>(
          util::next_pow2(std::max<std::uint64_t>(target, 4)), inst.m);
      PRAMSIM_ASSERT(util::is_pow2(M));
      inst.n_modules = static_cast<std::uint32_t>(M);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      inst.c = memmap::lemma2_min_c(spec.b, spec.k,
                                    std::max(inst.eps_effective, 0.25));
      rounds = RoundModel::kMot;
      placement = MotScheme::kCrossbar;
      inst.model = "DMBDN (2DMOT)";
      inst.time_unit = "cycles";
      inst.notes = "Fig. 7";
      break;
    }
    case SchemeKind::kLppMot: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      inst.n_modules = spec.n;  // one module per root processor
      inst.c = memmap::uw_c(inst.m, spec.b);
      rounds = RoundModel::kMot;
      placement = MotScheme::kLppRoots;
      inst.model = "DMBDN (2DMOT)";
      inst.time_unit = "cycles";
      inst.notes = "LPP'90";
      break;
    }
    case SchemeKind::kDmmpc: {
      const auto M64 = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(
              std::llround(std::pow(nd, 1.0 + spec.eps))),
          inst.m);
      inst.n_modules = static_cast<std::uint32_t>(M64);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      inst.c = memmap::lemma2_min_c(spec.b, spec.k, spec.eps);
      rounds = RoundModel::kDmmpc;
      inst.model = "DMMPC";
      inst.notes = "Theorem 2";
      break;
    }
    case SchemeKind::kUwMpc: {
      inst.n_modules = spec.n;  // the MPC: one module per processor
      inst.c = memmap::uw_c(inst.m, spec.b);
      rounds = RoundModel::kDmmpc;
      inst.model = "MPC";
      inst.notes = "UW'87";
      break;
    }
    case SchemeKind::kAltBdn: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      inst.n_modules = spec.n;  // BDN: one module per node
      inst.c = memmap::uw_c(inst.m, spec.b);
      rounds = RoundModel::kDmmpc;
      round_cycles = alt_round_cycles(spec.n);
      inst.request_hops = round_cycles;
      inst.model = "BDN (sorting)";
      inst.time_unit = "cycles";
      inst.notes = "Alt et al. '87";
      break;
    }
    case SchemeKind::kHbExpander: {
      inst.n_modules = spec.n;  // modules at the expander's nodes
      inst.c = hb_c(inst.m);
      rounds = RoundModel::kDmmpc;
      round_cycles = hb_round_cycles(spec.n, spec.seed + 101);
      inst.request_hops = round_cycles;
      inst.model = "BDN (expander)";
      inst.time_unit = "cycles";
      inst.notes = "HB'88; measured 6-regular expander";
      break;
    }
    case SchemeKind::kRanade: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      inst.n_modules = spec.n;  // one module per butterfly output row
      inst.c = 1;               // one hashed copy
      rounds = RoundModel::kButterfly;
      inst.model = "BDN (butterfly)";
      inst.time_unit = "cycles";
      inst.deterministic = false;
      inst.guarantee = "expected only";
      inst.notes = "Ranade'87; no worst-case bound";
      break;
    }
    case SchemeKind::kIda: {
      // Block size b = Theta(log n), d = 2b shares: constant (x2) storage
      // redundancy, Theta(log n) variables processed per access — the
      // opposite trade from the paper's replication.
      const auto block = std::max<std::uint32_t>(
          2, static_cast<std::uint32_t>(util::ilog2_ceil(spec.n)));
      const std::uint32_t d = 2 * block;
      const auto M64 = std::max<std::uint64_t>(
          d, std::min<std::uint64_t>(
                 {static_cast<std::uint64_t>(
                      std::llround(std::pow(nd, 1.0 + spec.eps))),
                  inst.m,
                  std::numeric_limits<std::uint32_t>::max()}));
      inst.n_modules = static_cast<std::uint32_t>(M64);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      // The word-granularity knob lands here in BLOCKS (a region spans
      // whole blocks); region_words below b collapses to the classic
      // one-row-per-block layout.
      const std::uint32_t region_blocks =
          std::max<std::uint32_t>(spec.region_words / block, 1);
      inst.region_words = region_blocks * block;
      inst.memory = std::make_unique<ida::IdaMemory>(
          inst.m, ida::IdaMemoryConfig{.b = block,
                                       .d = d,
                                       .n_modules = inst.n_modules,
                                       .seed = spec.seed,
                                       .check_shares =
                                           spec.ida_check_shares,
                                       .region_blocks = region_blocks});
      if (spec.ida_check_shares) {
        inst.name += "+ck";  // share checksums: detection bought with 2x
      }
      inst.model = "DMMPC";
      inst.guarantee = "deterministic; Theta(log n) work/access";
      inst.notes = "Schuster'87/Rabin'89";
      break;
    }
    case SchemeKind::kHashed: {
      inst.n_modules = spec.n;  // the MPC: one module per processor
      inst.memory = std::make_unique<hashing::MvMemory>(
          inst.m, hashing::MvMemoryConfig{.n_modules = inst.n_modules,
                                          .seed = spec.seed});
      inst.model = "MPC";
      inst.deterministic = false;
      inst.guarantee = "expected only";
      inst.notes = "MV'84; adversary can force n rounds";
      break;
    }
  }
  if (rounds != RoundModel::kNone) {
    // Every replicated kind: an r = 2c-1 hashed map, the cluster
    // protocol's config, the kind's engine, and a MajorityMemory over
    // them.
    inst.r = 2 * inst.c - 1;
    PRAMSIM_ASSERT_MSG(inst.r <= inst.n_modules,
                       "a map needs r <= M modules");
    auto map = std::make_shared<const memmap::HashedMap>(
        inst.m, inst.n_modules, inst.r, spec.seed);
    const majority::SchedulerConfig protocol{.c = inst.c,
                                             .cluster_size = inst.r,
                                             .n_processors = spec.n,
                                             .all_at_once = spec.all_at_once};
    std::unique_ptr<majority::AccessEngine> engine;
    if (rounds == RoundModel::kMot) {
      auto mot = std::make_unique<MotEngine>(
          map, MotEngineConfig{.scheme = placement,
                               .protocol = protocol,
                               .lca_turnaround = spec.lca_turnaround,
                               .prom_lookup = spec.prom_lookup});
      inst.switches = net::summarize(mot->shape()).switches;
      inst.request_hops = mot->request_hops();
      engine = std::move(mot);
    } else if (rounds == RoundModel::kButterfly) {
      engine = std::make_unique<RanadeButterflyEngine>(map, spec.n);
    } else {
      engine = std::make_unique<majority::DmmpcEngine>(map, protocol,
                                                       round_cycles);
    }
    auto memory =
        std::make_unique<majority::MajorityMemory>(std::move(engine));
    inst.engine = &memory->engine();
    inst.memory = std::move(memory);
    inst.map = std::move(map);
  }
  inst.storage_factor = inst.memory->storage_redundancy();
  if (spec.cache_lines > 0) {
    // The cache wraps the assembled scheme; engine/map introspection
    // handles stay valid because the wrapper owns the scheme. Fault
    // wrappers (faults::FaultableMemory) go OUTSIDE the cache, so the
    // oracle scores cache-served values too.
    inst.memory = std::make_unique<cache::CachedMemory>(
        std::move(inst.memory),
        cache::CacheConfig{.capacity = spec.cache_lines});
    inst.name += "+cache";
  }
  // Backend selection is uniform: the memory downgrades a request its
  // capabilities (or configuration) cannot honor, and the instance
  // records what is actually in effect.
  inst.backend = inst.memory->set_serve_backend(spec.backend);
  return inst;
}

std::unique_ptr<pram::MemorySystem> make_memory(const SchemeSpec& spec) {
  return std::move(make_scheme(spec).memory);
}

}  // namespace pramsim::core
