// pramsim_bench: one benchmark workload per process.
//
//   pramsim_bench --workload <name> --seed <u64> [--seconds <s>]
//                 [--dir <work directory>] [--trace <span file>]
//
// Each workload drives the system through its public calls, the way the
// pipeline's serial loop does: core::PlanBuilder::build, then
// MemorySystem::serve with a ServeContext holding a util::Executor, and,
// on the durable workload, scrub, the WAL, checkpoints and
// durability::recover. The machine workload steps pram::Machine.
//
// --seconds sets the run length. Each workload turns it into a fixed
// number of P-RAM steps (or sorts) at its nominal rate on the reference
// host, so two commits always do the same work and the simulated
// statistics of one seed repeat exactly. Inputs derive from --seed alone
// and are generated in 256-step chunks outside the timed region. Every
// read is checked against a pram::FlatMemory replica served the same
// plans, also outside the timed region.
//
// Without --trace the run prints the end-to-end metrics. With --trace the
// run measures an untraced body and then a traced body on the same seed,
// writes the traced body's spans to the file as Chrome trace-event JSON,
// and prints the per-layer metrics. Either way the last line of standard
// output is one JSON object:
//   {"workload":"...","seed":N,"traced":B,"attempted":N,"failed":N,
//    "metrics":{"<name>":{"value":V,"unit":"U"},...}}
// The exit code is 0 when the run completed, whatever it found wrong
// (the caller judges "failed"), and 2 on a bad command line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cached_memory.hpp"
#include "core/plan_builder.hpp"
#include "core/schemes.hpp"
#include "durability/checkpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "faults/faultable_memory.hpp"
#include "obs/sink.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "pram/trace.hpp"
#include "spans.hpp"
#include "timed_memory.hpp"
#include "util/parallel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace pramsim;
using benchmark::ScopedSpan;
using benchmark::SpanRecorder;
namespace fs = std::filesystem;

constexpr std::size_t kChunkSteps = 256;   // input generation granularity
constexpr std::size_t kWarmupSteps = 256;  // served during set-up
constexpr std::size_t kSetups = 5;         // set-ups per untraced run
constexpr std::uint64_t kSchemeSeed = 17;  // memory maps are configuration

// durable_faults protocol: the cadences the crash-recovery harness uses,
// stretched to a long run.
constexpr std::uint64_t kScrubInterval = 8;
constexpr std::uint64_t kScrubBudget = 256;
constexpr std::uint32_t kWalFlushInterval = 2;
constexpr std::uint64_t kCheckpointInterval = 250;
constexpr std::uint32_t kKeepCheckpoints = 2;

constexpr std::uint32_t kSortSize = 1024;

struct Workload {
  const char* name;
  core::SchemeSpec spec;
  pram::TraceFamily family = pram::TraceFamily::kUniform;
  std::uint64_t cache_lines = 0;
  bool durable_faults = false;
  bool machine = false;
  std::size_t workers = 1;  ///< util::set_parallel_workers_override
  /// Steps (machine: sorts) per --seconds second on the reference host.
  double nominal_rate = 0.0;
};

std::vector<Workload> workloads() {
  using core::SchemeKind;
  std::vector<Workload> list;
  list.push_back({.name = "serve_dmmpc",
                  .spec = {.kind = SchemeKind::kDmmpc, .n = 4096, .k = 1.5},
                  .nominal_rate = 450});
  list.push_back({.name = "serve_dmmpc_gp",
                  .spec = {.kind = SchemeKind::kDmmpc,
                           .n = 4096,
                           .k = 1.5,
                           .backend = pram::ServeBackend::kGroupParallel},
                  .workers = 2,
                  // serve_dmmpc's step count, so their statistics compare.
                  .nominal_rate = 450});
  list.push_back({.name = "ida_wide",
                  .spec = {.kind = SchemeKind::kIda,
                           .n = 1024,
                           .k = 2.0,
                           .region_words = 64},
                  .nominal_rate = 250});
  list.push_back({.name = "zipf_cache_hashed",
                  .spec = {.kind = SchemeKind::kHashed, .n = 4096, .k = 1.5},
                  .family = pram::TraceFamily::kZipfian,
                  .cache_lines = 32768,  // m / 8
                  .nominal_rate = 2000});
  list.push_back({.name = "durable_faults",
                  .spec = {.kind = SchemeKind::kDmmpc, .n = 1024, .k = 2.0},
                  .durable_faults = true,
                  .nominal_rate = 200});
  list.push_back({.name = "machine_sort_2dmot",
                  .spec = {.kind = SchemeKind::kHpMot, .n = kSortSize},
                  .machine = true,
                  .nominal_rate = 0.2});
  for (Workload& w : list) {
    w.spec.seed = kSchemeSeed;
  }
  return list;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return util::SplitMix64(seed * 0x9E3779B97F4A7C15ULL ^ salt).next();
}

/// Variables a workload's memory covers, n^k, as core::make_scheme sizes
/// it; known before the first stack so the benchmark's own tables can be
/// allocated ahead of it. PipelineRun checks it against the built memory.
std::uint64_t covered_vars(const core::SchemeSpec& spec) {
  const auto m = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(spec.n), spec.k)));
  return std::max<std::uint64_t>({m, spec.min_vars, spec.n});
}

// Host-speed probes. On a shared host, co-tenant load moves every
// workload's speed by 10-40 % between runs minutes apart. Two fixed
// kernels, timed outside the steps (before each set-up and between
// chunks), slow with it: a memory kernel (random read-modify-writes over a
// 32 MB table) and a core kernel (a dependent xorshift chain). Each
// kernel's speed is its reference time over its median time in the run;
// host_speed is the product of the two raised to kHostSpeedExponent, and
// the normalized metrics scale by it. The kernels are the benchmark's own
// code, so a change to the system never moves them. README.md records
// how the exponent was chosen.

/// Median kernel times on the reference host, in a quiet period.
constexpr double kMemoryProbeReferenceNs = 2.4e6;
constexpr double kCoreProbeReferenceNs = 4.5e6;
constexpr double kHostSpeedExponent = 0.75;

std::uint64_t probe_memory() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  static std::vector<std::uint64_t> table(kWords, 1);
  static util::SplitMix64 rng(0x9E3779B97F4A7C15ULL);
  const std::uint64_t start = util::Stopwatch::now_ns();
  std::uint64_t sum = 0;
  for (int i = 0; i < 200000; ++i) {
    sum += table[rng.next() & (kWords - 1)]++;
  }
  table[0] += sum & 1;  // keeps the loop's loads observable
  return util::Stopwatch::now_ns() - start;
}

std::uint64_t probe_core() {
  // Static, so the chain's result stays observable.
  static std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t start = util::Stopwatch::now_ns();
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return util::Stopwatch::now_ns() - start;
}

class HostSpeed {
 public:
  void sample() {
    memory_ns_.add(static_cast<double>(probe_memory()));
    core_ns_.add(static_cast<double>(probe_core()));
  }
  /// Each 1.0 on a quiet reference host, below 1 on a slower one.
  [[nodiscard]] double memory_speed() const {
    return kMemoryProbeReferenceNs / memory_ns_.median();
  }
  [[nodiscard]] double core_speed() const {
    return kCoreProbeReferenceNs / core_ns_.median();
  }
  [[nodiscard]] double speed() const {
    return std::pow(memory_speed() * core_speed(), kHostSpeedExponent);
  }

 private:
  util::SampleSet memory_ns_;
  util::SampleSet core_ns_;
};

/// The process's peak resident set so far (getrusage high-water mark).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Everything one timed body measured.
struct Tally {
  util::SampleSet step_ns;
  util::SampleSet setup_s;
  HostSpeed host;
  /// peak_rss_mb() once the benchmark's own tables (probe, replica,
  /// warm-up input) exist and before the first stack is built.
  double rss_base_mb = 0.0;
  std::uint64_t sim_time = 0;
  std::uint64_t work = 0;
  std::uint64_t live_after_stage1 = 0;
  std::uint64_t max_queue = 0;
  std::uint64_t plan_requests = 0;
  std::uint64_t plan_groups = 0;
  std::uint64_t shared_accesses = 0;  ///< machine: raw accesses issued
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // durable_faults only.
  pram::ScrubResult scrub;
  std::uint64_t user_bytes = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recover_ns = 0;
  std::uint64_t replayed_records = 0;
  pram::ReliabilityStats reliability;  ///< body delta
  cache::CacheStats cache;             ///< body delta

  [[nodiscard]] std::size_t steps() const { return step_ns.size(); }
  [[nodiscard]] double total_ns() const {
    return step_ns.size() == 0 ? 0.0
                               : step_ns.mean() *
                                     static_cast<double>(step_ns.size());
  }

  void add(const pram::MemStepCost& cost) {
    sim_time += cost.time;
    work += cost.work;
    live_after_stage1 += cost.live_after_stage1;
    max_queue += cost.max_queue;
  }
};

/// One assembled stack plus the serving state the pipeline loop keeps.
struct Stack {
  std::unique_ptr<pram::MemorySystem> memory;  // outermost layer
  cache::CachedMemory* cache = nullptr;
  core::PlanBuilder builder;
  util::Executor executor;
  pram::ServeContext ctx;
  std::vector<pram::Word> values;
  std::unique_ptr<durability::Wal> wal;
  std::unique_ptr<durability::Checkpointer> checkpointer;
  /// Realized fault onsets (step, module), acknowledged in the WAL as
  /// the step clock crosses them.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> onsets;
  std::size_t onset_cursor = 0;
};

class PipelineRun {
 public:
  PipelineRun(const Workload& w, std::uint64_t seed, std::size_t body_steps,
              const std::string& dir)
      : w_(w),
        seed_(seed),
        body_steps_(body_steps),
        dir_(dir),
        m_(covered_vars(w.spec)) {
    // Faults the 7-copy majority vote always masks, so no operation fails.
    // The map has one module per variable (2^20), so a kill rate of 0.05
    // leaves about 7 variables per seed with 5 of 7 copies dead; a
    // corrupted store to one of the 2 survivors makes a tied vote that the
    // smaller word wins, and about one seed in a hundred ended with a
    // wrong live value. At 0.01 those variables are 5^5 times rarer.
    fault_spec_ = {.seed = mix_seed(seed, 0xFA17),
                   .module_kill_rate = 0.01,
                   .corruption_rate = 0.001,
                   .onset_min = 1,
                   .onset_max = (kWarmupSteps + body_steps) / 2};
  }

  /// Set up `setups` times (keeping the last stack), serve the timed
  /// body, and on the durable workload crash, recover and compare.
  Tally run(std::size_t setups, SpanRecorder* spans, obs::Sink* sink) {
    Tally t;
    util::Rng input_rng(mix_seed(seed_, 0x1A9u));
    const std::vector<pram::AccessBatch> warmup = pram::make_trace(
        w_.family, w_.spec.n, m_, kWarmupSteps, input_rng, trace_params());
    pram::FlatMemory replica(m_);
    written_.assign(m_, 0);
    t.rss_base_mb = peak_rss_mb();
    std::unique_ptr<Stack> stack;
    for (std::size_t rep = 0; rep < setups; ++rep) {
      stack.reset();
      reset_dir();
      for (std::uint64_t v = 0; v < m_; ++v) {  // back to all zeros
        if (written_[v] != 0) {
          replica.poke(VarId(static_cast<std::uint32_t>(v)), 0);
          written_[v] = 0;
        }
      }
      t.host.sample();
      const std::uint64_t start = util::Stopwatch::now_ns();
      stack = build(spans);
      PRAMSIM_ASSERT_MSG(stack->memory->size() == m_,
                         "covered_vars() disagrees with the built memory");
      if (w_.durable_faults) {
        // A new Wal truncates any log at its path, so only the live stack
        // opens one; the recovering stack reads what the crash left.
        stack->wal = std::make_unique<durability::Wal>(
            durability::WalConfig{wal_path(), kWalFlushInterval});
        stack->checkpointer = std::make_unique<durability::Checkpointer>(
            durability::CheckpointConfig{dir_, kKeepCheckpoints});
      }
      std::uint64_t setup_ns = util::Stopwatch::now_ns() - start;
      Tally discarded;  // warm-up steps count toward set-up only
      for (std::size_t i = 0; i < warmup.size(); ++i) {
        setup_ns += serve_step(*stack, warmup[i], i + 1, nullptr, discarded);
        check_step(*stack, replica, t);
      }
      t.setup_s.add(static_cast<double>(setup_ns) * 1e-9);
    }

    if (sink != nullptr) {
      stack->memory->set_observer(sink);
    }
    const pram::ReliabilityStats rel0 = stack->memory->reliability();
    const cache::CacheStats cache0 =
        stack->cache != nullptr ? stack->cache->stats() : cache::CacheStats{};
    if (spans != nullptr) {
      spans->set_active(true);
    }
    std::uint64_t step = kWarmupSteps;
    for (std::size_t done = 0; done < body_steps_;) {
      const std::size_t n = std::min(kChunkSteps, body_steps_ - done);
      const auto chunk = pram::make_trace(w_.family, w_.spec.n, m_, n,
                                          input_rng, trace_params());
      t.host.sample();
      for (const pram::AccessBatch& batch : chunk) {
        ++step;
        t.step_ns.add(
            static_cast<double>(serve_step(*stack, batch, step, spans, t)));
        check_step(*stack, replica, t);
      }
      done += n;
    }
    if (spans != nullptr) {
      spans->set_active(false);
    }
    if (sink != nullptr) {
      stack->memory->set_observer(nullptr);
    }
    t.reliability = delta(stack->memory->reliability(), rel0);
    if (stack->cache != nullptr) {
      t.cache = delta(stack->cache->stats(), cache0);
    }
    if (w_.durable_faults) {
      crash_and_recover(std::move(stack), replica, spans, t);
    }
    return t;
  }

 private:
  [[nodiscard]] pram::TraceParams trace_params() const {
    return {.write_fraction = 0.5, .zipf_exponent = 1.1};
  }

  [[nodiscard]] std::string wal_path() const {
    return (fs::path(dir_) / "wal.log").string();
  }

  void reset_dir() const {
    if (w_.durable_faults) {
      fs::remove_all(dir_);
      fs::create_directories(dir_);
    }
  }

  /// Scheme, then (traced) the probe shim, then cache, then faults —
  /// the factory's wrapper order with the shim under every wrapper.
  std::unique_ptr<Stack> build(SpanRecorder* spans) const {
    auto stack = std::make_unique<Stack>();
    std::unique_ptr<pram::MemorySystem> memory = core::make_memory(w_.spec);
    if (spans != nullptr) {
      memory = std::make_unique<benchmark::TimedMemory>(std::move(memory),
                                                        *spans,
                                                        "scheme.serve");
    }
    if (w_.cache_lines > 0) {
      auto cached = std::make_unique<cache::CachedMemory>(
          std::move(memory), cache::CacheConfig{.capacity = w_.cache_lines});
      stack->cache = cached.get();
      memory = std::move(cached);
    }
    if (w_.durable_faults) {
      auto faulty = std::make_unique<faults::FaultableMemory>(
          std::move(memory), fault_spec_);
      for (const ModuleId module : faulty->model().dead_modules()) {
        stack->onsets.emplace_back(faulty->model().module_onset(module),
                                   module.index());
      }
      std::sort(stack->onsets.begin(), stack->onsets.end());
      memory = std::move(faulty);
    }
    (void)memory->set_serve_backend(w_.spec.backend);
    stack->memory = std::move(memory);
    stack->ctx.set_executor(&stack->executor);
    return stack;
  }

  /// One P-RAM step through the public calls; returns its host ns.
  std::uint64_t serve_step(Stack& s, const pram::AccessBatch& batch,
                           std::uint64_t step, SpanRecorder* spans,
                           Tally& t) const {
    const std::uint64_t start = util::Stopwatch::now_ns();
    {
      const ScopedSpan root(spans, "step", step);
      const pram::AccessPlan* plan = nullptr;
      {
        const ScopedSpan span(spans, "core.plan_build");
        plan = &s.builder.build(batch, *s.memory);
      }
      s.values.resize(plan->reads.size());
      s.ctx.bind(s.values);
      {
        const ScopedSpan span(spans, "serve");
        t.add(s.memory->serve(*plan, s.ctx));
      }
      t.plan_requests += plan->requests.size();
      t.plan_groups += plan->num_groups();
      if (w_.durable_faults) {
        durable_step(s, *plan, step, spans, t);
      }
    }
    return util::Stopwatch::now_ns() - start;
  }

  void durable_step(Stack& s, const pram::AccessPlan& plan,
                    std::uint64_t step, SpanRecorder* spans,
                    Tally& t) const {
    if (step % kScrubInterval == 0) {
      const ScopedSpan span(spans, "scrub");
      t.scrub.merge(s.memory->scrub(kScrubBudget));
    }
    {
      const ScopedSpan span(spans, "wal.append");
      while (s.onset_cursor < s.onsets.size() &&
             s.onsets[s.onset_cursor].first <= step) {
        s.wal->append_onset(step, s.onsets[s.onset_cursor].second);
        ++s.onset_cursor;
      }
      s.wal->append_step(step, plan.writes);
    }
    t.user_bytes += plan.writes.size() * sizeof(pram::Word);
    {
      const ScopedSpan span(spans, "wal.flush");
      const std::uint64_t before = s.wal->file_bytes();
      s.wal->maybe_flush(step);
      t.wal_bytes += s.wal->file_bytes() - before;
    }
    if (step % kCheckpointInterval == 0) {
      {
        const ScopedSpan span(spans, "wal.flush");
        const std::uint64_t before = s.wal->file_bytes();
        s.wal->flush();
        t.wal_bytes += s.wal->file_bytes() - before;
      }
      {
        const ScopedSpan span(spans, "checkpoint.write");
        t.checkpoint_bytes += s.checkpointer->write(*s.memory, step);
        ++t.checkpoints;
      }
      {
        const ScopedSpan span(spans, "wal.truncate");
        s.wal->truncate_through(step);
        t.wal_bytes += s.wal->file_bytes();  // the rewritten tail
      }
    }
  }

  /// Outside the timed region: serve the step's plan into the replica and
  /// count every read that differs from it or came back flagged.
  void check_step(Stack& s, pram::FlatMemory& replica, Tally& t) {
    const pram::AccessPlan& plan = s.builder.plan();
    expected_.resize(plan.reads.size());
    (void)replica.step(plan.reads, expected_, plan.writes);
    const std::span<const std::uint8_t> flags = s.ctx.flags();
    for (std::size_t i = 0; i < plan.reads.size(); ++i) {
      ++t.attempted;
      if (s.values[i] != expected_[i] ||
          (i < flags.size() && flags[i] != 0)) {
        ++t.failed;
        report_failure("read of var", plan.reads[i], t);
      }
    }
    for (const pram::VarWrite& write : plan.writes) {
      written_[write.var.index()] = 1;
    }
  }

  /// Final WAL flush, then drop the live stack (the crash), recover into
  /// a fresh stack of the same configuration, and compare every written
  /// variable: recovered against live, and live against the replica.
  void crash_and_recover(std::unique_ptr<Stack> live,
                         const pram::FlatMemory& replica,
                         SpanRecorder* spans, Tally& t) {
    const std::uint64_t before = live->wal->file_bytes();
    live->wal->flush();
    t.wal_bytes += live->wal->file_bytes() - before;
    std::vector<pram::VarWrite> state;
    for (std::uint64_t v = 0; v < m_; ++v) {
      if (written_[v] != 0) {
        const VarId var(static_cast<std::uint32_t>(v));
        state.push_back({var, live->memory->peek(var)});
      }
    }
    live.reset();

    const std::unique_ptr<Stack> fresh = build(spans);
    if (spans != nullptr) {
      spans->set_active(true);
    }
    const std::uint64_t start = util::Stopwatch::now_ns();
    durability::RecoveryOutcome outcome;
    {
      const ScopedSpan span(spans, "recover");
      outcome = durability::recover(*fresh->memory, wal_path(), dir_,
                                    kScrubBudget);
    }
    t.recover_ns = util::Stopwatch::now_ns() - start;
    if (spans != nullptr) {
      spans->set_active(false);
    }
    t.replayed_records = outcome.replayed_records;
    for (const pram::VarWrite& entry : state) {
      t.attempted += 2;
      if (fresh->memory->peek(entry.var) != entry.value) {
        ++t.failed;
        report_failure("recovered value of var", entry.var, t);
      }
      if (replica.peek(entry.var) != entry.value) {
        ++t.failed;
        report_failure("live value of var", entry.var, t);
      }
    }
  }

  /// The first few failures of a run, on standard error, so a failing
  /// seed says what went wrong.
  static void report_failure(const char* what, VarId var, const Tally& t) {
    if (t.failed <= 10) {
      std::fprintf(stderr, "failed: %s %llu\n", what,
                   static_cast<unsigned long long>(var.index()));
    }
  }

  static pram::ReliabilityStats delta(pram::ReliabilityStats now,
                                      const pram::ReliabilityStats& then) {
    now.reads_served -= then.reads_served;
    now.faults_masked -= then.faults_masked;
    now.uncorrectable -= then.uncorrectable;
    now.wrong_reads -= then.wrong_reads;
    return now;
  }

  static cache::CacheStats delta(cache::CacheStats now,
                                 const cache::CacheStats& then) {
    now.hits -= then.hits;
    now.misses -= then.misses;
    now.evictions -= then.evictions;
    now.writebacks -= then.writebacks;
    return now;
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::size_t body_steps_;
  std::string dir_;
  std::uint64_t m_;
  faults::FaultSpec fault_spec_;
  std::vector<std::uint8_t> written_;
  std::vector<pram::Word> expected_;
};

/// `sorts` bitonic sorts of seeded inputs, each on a freshly constructed
/// machine; set-up is construction plus loading the input, done `setups`
/// times per sort (keeping the last machine).
Tally run_machine(const Workload& w, std::uint64_t seed, std::size_t sorts,
                  std::size_t setups, SpanRecorder* spans, obs::Sink* sink) {
  Tally t;
  const pram::programs::ProgramSpec program =
      pram::programs::bitonic_sort(kSortSize);
  core::SchemeSpec spec = w.spec;
  spec.min_vars = program.m_required;
  const pram::MachineConfig config{.n_processors = kSortSize,
                                   .m_shared_cells = program.m_required,
                                   .policy = pram::ConflictPolicy::kErew};
  util::Rng rng(mix_seed(seed, 0x5027u));
  t.rss_base_mb = peak_rss_mb();
  for (std::size_t sort = 0; sort < sorts; ++sort) {
    std::vector<pram::Word> input(kSortSize);
    for (pram::Word& value : input) {
      value = static_cast<pram::Word>(rng.below(1u << 30));
    }
    std::vector<pram::Word> expected = input;
    std::sort(expected.begin(), expected.end());

    std::unique_ptr<pram::Machine> built;
    for (std::size_t rep = 0; rep < setups; ++rep) {
      built.reset();
      t.host.sample();
      const std::uint64_t start = util::Stopwatch::now_ns();
      std::unique_ptr<pram::MemorySystem> memory = core::make_memory(spec);
      if (spans != nullptr) {
        memory = std::make_unique<benchmark::TimedMemory>(
            std::move(memory), *spans, "pram.memory");
      }
      built = std::make_unique<pram::Machine>(config, program.program,
                                              std::move(memory));
      for (std::uint32_t i = 0; i < kSortSize; ++i) {
        built->poke_shared(VarId(i), input[i]);
      }
      t.setup_s.add(
          static_cast<double>(util::Stopwatch::now_ns() - start) * 1e-9);
    }
    pram::Machine& machine = *built;

    if (sink != nullptr) {
      machine.memory().set_observer(sink);
    }
    if (spans != nullptr) {
      spans->set_active(true);
    }
    bool ok = true;
    while (ok && !machine.all_halted()) {
      const std::uint64_t step_start = util::Stopwatch::now_ns();
      pram::StepOutcome outcome;
      {
        const ScopedSpan root(spans, "step", t.steps() + 1);
        const ScopedSpan span(spans, "pram.machine_step");
        outcome = machine.step();
      }
      t.step_ns.add(
          static_cast<double>(util::Stopwatch::now_ns() - step_start));
      t.add(outcome.mem_cost);
      t.shared_accesses += machine.last_raw_batch().size();
      ok = outcome.status == pram::StepStatus::kOk;
      if (t.steps() % kChunkSteps == 0) {
        t.host.sample();
      }
    }
    if (spans != nullptr) {
      spans->set_active(false);
    }
    if (sink != nullptr) {
      machine.memory().set_observer(nullptr);
    }
    for (std::uint32_t i = 0; i < kSortSize; ++i) {
      ++t.attempted;
      if (!ok || machine.shared(VarId(i)) != expected[i]) {
        ++t.failed;
      }
    }
  }
  return t;
}

// ---- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The end-to-end metrics BENCHMARK.json gates, then the ones printed for
/// reading only: step-time percentiles swing with host noise far beyond
/// any usable bound, and the rest are 0 or undefined on some workloads.
std::vector<Metric> end_to_end(const Workload& w, const Tally& t) {
  const double steps = static_cast<double>(t.steps());
  const double rate = ratio(steps, t.total_ns() * 1e-9);
  const double host_speed = t.host.speed();
  std::vector<Metric> metrics = {
      {"norm_steps_per_s", ratio(rate, host_speed), "1/s"},
      {"setup_s", t.setup_s.median() * host_speed, "s"},
      {"peak_rss_mb", peak_rss_mb() - t.rss_base_mb, "MB"},
      {"sim_time_per_step", ratio(static_cast<double>(t.sim_time), steps),
       "rounds/step"},
      {"work_per_step", ratio(static_cast<double>(t.work), steps),
       "accesses/step"},
      {"steps_per_s", rate, "1/s"},
      {"setup_raw_s", t.setup_s.median(), "s"},
      {"host_speed", host_speed, "ratio"},
      {"host_memory_speed", t.host.memory_speed(), "ratio"},
      {"host_core_speed", t.host.core_speed(), "ratio"},
      {"step_p50_us", t.step_ns.median() * 1e-3, "us"},
      {"step_p99_us", t.step_ns.percentile(99.0) * 1e-3, "us"},
      {"failed_frac", ratio(static_cast<double>(t.failed),
                            static_cast<double>(t.attempted)),
       "ratio"},
  };
  if (w.durable_faults) {
    metrics.push_back(
        {"recovery_s", static_cast<double>(t.recover_ns) * 1e-9, "s"});
    metrics.push_back(
        {"write_amp",
         ratio(static_cast<double>(t.wal_bytes + t.checkpoint_bytes),
               static_cast<double>(t.user_bytes)),
         "ratio"});
  }
  return metrics;
}

/// Per-layer metrics of the traced body `t` (spans and obs phases), with
/// byte counts from the untraced body `u`. Host times are shares of the
/// traced step time, so a layer absent from a workload reads 0 % and the
/// layer shares of one run add up to trace.coverage_pct.
std::vector<Metric> per_layer(const Workload& w, const Tally& t,
                              const Tally& u, const SpanRecorder& spans,
                              const obs::Sink& sink) {
  const auto totals = spans.totals();
  const auto span_ns = [&](std::string_view name) -> double {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto phase_ns = [&](obs::Phase phase) {
    return static_cast<double>(sink.phases[phase].total_ns);
  };
  const double wall = span_ns("step");
  const double steps = static_cast<double>(t.steps());
  const auto pct = [&](double ns) { return 100.0 * ratio(ns, wall); };
  const auto per_step = [&](double count) { return ratio(count, steps); };

  // The scheme's own serve time: the shim's span, under the machine or
  // under the wrappers.
  const double scheme_ns = span_ns("scheme.serve") + span_ns("pram.memory");
  const bool majority = w.spec.kind == core::SchemeKind::kDmmpc ||
                        w.spec.kind == core::SchemeKind::kHpMot;
  const bool ida = w.spec.kind == core::SchemeKind::kIda;
  const bool hashed = w.spec.kind == core::SchemeKind::kHashed;
  const double schedule = phase_ns(obs::Phase::kEngineSchedule);
  const double value = phase_ns(obs::Phase::kValuePhase);
  const double decode = phase_ns(obs::Phase::kDecode);
  const double encode = phase_ns(obs::Phase::kEncode);
  const double oracle = phase_ns(obs::Phase::kOracle);
  const double wrapper_ns = span_ns("serve") - span_ns("scheme.serve");

  double top_level = 0.0;
  for (const benchmark::Span& span : spans.spans()) {
    if (span.depth == 1 &&
        std::string_view(spans.spans()[span.parent].name) == "step") {
      top_level += static_cast<double>(span.duration_ns());
    }
  }
  const double untraced_rate = ratio(static_cast<double>(u.steps()),
                                     u.total_ns() * 1e-9);
  const double traced_rate = ratio(steps, wall * 1e-9);
  const double reads = static_cast<double>(t.reliability.reads_served);
  const double lookups = static_cast<double>(t.cache.hits + t.cache.misses);

  return {
      {"core.plan_build_pct", pct(span_ns("core.plan_build")), "%"},
      {"core.plan_requests", per_step(t.plan_requests), "count/step"},
      {"core.plan_groups", per_step(t.plan_groups), "count/step"},
      {"pram.machine_pct",
       pct(span_ns("pram.machine_step") - span_ns("pram.memory")), "%"},
      {"pram.memory_pct", pct(span_ns("pram.memory")), "%"},
      {"pram.shared_accesses", per_step(t.shared_accesses), "count/step"},
      {"majority.engine_schedule_pct", pct(schedule), "%"},
      {"majority.value_phase_pct", pct(value), "%"},
      {"majority.serve_other_pct",
       majority ? pct(scheme_ns - schedule - value) : 0.0, "%"},
      {"majority.live_after_stage1",
       majority ? per_step(t.live_after_stage1) : 0.0, "count/step"},
      {"majority.max_queue", majority ? per_step(t.max_queue) : 0.0,
       "count/step"},
      {"majority.scrub_pct", pct(span_ns("scrub")), "%"},
      {"majority.scrub_useful",
       ratio(static_cast<double>(t.scrub.repaired),
             static_cast<double>(t.scrub.scanned)),
       "ratio"},
      {"ida.decode_pct", pct(decode), "%"},
      {"ida.encode_pct", pct(encode), "%"},
      {"ida.serve_other_pct", ida ? pct(scheme_ns - decode - encode) : 0.0,
       "%"},
      {"ida.codec_bytes",
       ida ? per_step(static_cast<double>(t.work) * sizeof(pram::Word)) : 0.0,
       "B/step"},
      {"hashing.serve_pct", hashed ? pct(scheme_ns) : 0.0, "%"},
      {"cache.self_pct", w.cache_lines > 0 ? pct(wrapper_ns) : 0.0, "%"},
      {"cache.hit_rate", ratio(static_cast<double>(t.cache.hits), lookups),
       "ratio"},
      {"cache.residual_reads", per_step(t.cache.misses), "count/step"},
      {"cache.evictions", per_step(t.cache.evictions), "count/step"},
      {"cache.writebacks", per_step(t.cache.writebacks), "count/step"},
      {"faults.self_pct", w.durable_faults ? pct(wrapper_ns - oracle) : 0.0,
       "%"},
      {"faults.oracle_pct", pct(oracle), "%"},
      {"faults.masked_frac",
       ratio(static_cast<double>(t.reliability.faults_masked), reads),
       "ratio"},
      {"faults.uncorrectable",
       static_cast<double>(t.reliability.uncorrectable), "count"},
      {"faults.wrong_reads", static_cast<double>(t.reliability.wrong_reads),
       "count"},
      {"durability.wal_append_pct", pct(span_ns("wal.append")), "%"},
      {"durability.wal_flush_pct", pct(span_ns("wal.flush")), "%"},
      {"durability.wal_bytes", ratio(static_cast<double>(u.wal_bytes),
                                     static_cast<double>(u.steps())),
       "B/step"},
      {"durability.checkpoint_pct", pct(span_ns("checkpoint.write")), "%"},
      {"durability.checkpoint_bytes",
       ratio(static_cast<double>(u.checkpoint_bytes),
             static_cast<double>(u.checkpoints)),
       "B"},
      {"durability.truncate_pct", pct(span_ns("wal.truncate")), "%"},
      {"durability.write_amp",
       ratio(static_cast<double>(u.wal_bytes + u.checkpoint_bytes),
             static_cast<double>(u.user_bytes)),
       "ratio"},
      {"durability.replayed_records",
       static_cast<double>(t.replayed_records), "count"},
      {"durability.recover_pct", pct(static_cast<double>(t.recover_ns)),
       "%"},
      {"trace.step_us", ratio(wall, steps) * 1e-3, "us"},
      {"trace.coverage_pct", pct(top_level), "%"},
      {"trace.overhead_pct",
       100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%"},
  };
}

void print_result(const Workload& w, std::uint64_t seed, bool traced,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("workload %s  seed %llu  %s\n", w.name,
              static_cast<unsigned long long>(seed),
              traced ? "traced" : "untraced");
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-30s %16llu of %llu checked\n", "failed",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"metrics\":{",
      w.name, static_cast<unsigned long long>(seed),
      traced ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: pramsim_bench --workload <name> "
               "--seed <u64> [--seconds <s>] [--dir <directory>] "
               "[--trace <file>]\nworkloads:",
               message);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string dir = ".";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) {
      return usage("every option takes a value");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--dir") {
      dir = value;
    } else if (arg == "--trace") {
      trace_path = value;
    } else {
      return usage("unknown option");
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return usage("malformed number");
    }
  }
  const std::vector<Workload> all = workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return name == w.name;
  });
  if (found == all.end()) {
    return usage("unknown workload");
  }
  if (!(seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  const Workload& w = *found;
  util::set_parallel_workers_override(w.workers);
  (void)probe_memory();  // allocate and fault in the probe's table

  // The run length in whole chunks of steps (machine: whole sorts).
  const double units = std::max(1.0, std::round(seconds * w.nominal_rate /
                                                (w.machine ? 1.0
                                                           : kChunkSteps)));
  const auto count = static_cast<std::size_t>(units);
  const std::string work_dir = (fs::path(dir) / "durable").string();
  const auto run = [&](std::size_t setups, SpanRecorder* spans,
                       obs::Sink* sink) {
    if (w.machine) {
      return run_machine(w, seed, count, setups, spans, sink);
    }
    PipelineRun pipeline(w, seed, count * kChunkSteps, work_dir);
    return pipeline.run(setups, spans, sink);
  };

  int status = 0;
  if (trace_path.empty()) {
    const Tally t = run(kSetups, nullptr, nullptr);
    print_result(w, seed, false, t.attempted, t.failed, end_to_end(w, t));
  } else {
    const Tally untraced = run(1, nullptr, nullptr);
    SpanRecorder spans;
    obs::Sink sink;
    const Tally traced = run(1, &spans, &sink);
    std::vector<Metric> metrics = per_layer(w, traced, untraced, spans, sink);
    // The simulated statistics of the traced body, so a caller can check
    // that the probes left them unchanged.
    for (const Metric& metric : end_to_end(w, traced)) {
      if (metric.name == "sim_time_per_step" ||
          metric.name == "work_per_step") {
        metrics.push_back(metric);
      }
    }
    if (!spans.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      status = 1;
    }
    print_result(w, seed, true, untraced.attempted + traced.attempted,
                 untraced.failed + traced.failed, metrics);
  }
  fs::remove_all(work_dir);
  return status;
}
