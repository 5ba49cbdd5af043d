// The pluggable shared-memory abstraction.
//
// The ideal P-RAM reads/writes a flat array in unit time. Every simulation
// scheme in this repository (DMMPC majority, 2DMOT, IDA, hashing) is a
// MemorySystem implementation whose serve() reports how long the
// simulating machine took, in that machine's native time unit (protocol
// rounds for complete-interconnect models, network cycles for
// bounded-degree ones). Plugging a scheme into pram::Machine yields the
// end-to-end simulated P-RAM the paper describes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/sink.hpp"
#include "pram/access_plan.hpp"
#include "pram/faults.hpp"
#include "pram/serve_context.hpp"
#include "pram/snapshot.hpp"
#include "pram/types.hpp"

namespace pramsim::memmap {
class MemoryMap;  // forward declaration: optional introspection hook only
}

namespace pramsim::pram {

/// Cost of serving one P-RAM step's accesses on the simulating machine,
/// plus scheme-agnostic telemetry (fields a scheme cannot measure stay 0).
struct MemStepCost {
  /// Elapsed time in the simulating machine's unit (rounds or cycles).
  std::uint64_t time = 0;
  /// Total copy/share accesses performed (work; relevant for IDA).
  std::uint64_t work = 0;
  /// Live variables left after stage 1 of a two-stage majority protocol.
  std::uint64_t live_after_stage1 = 0;
  /// Peak per-module (or per-edge) contention this step.
  std::uint64_t max_queue = 0;
};

/// Outcome of one background scrub pass (MemorySystem::scrub): how much
/// of the budget was spent and what it bought.
struct ScrubResult {
  std::uint64_t scanned = 0;    ///< storage entities examined
  std::uint64_t repaired = 0;   ///< entities re-replicated / re-dispersed
  std::uint64_t relocated = 0;  ///< copies/shares moved off dead modules
  std::uint64_t work = 0;       ///< copy/share accesses the pass performed

  void merge(const ScrubResult& other) {
    scanned += other.scanned;
    repaired += other.repaired;
    relocated += other.relocated;
    work += other.work;
  }
};

/// Capability bits a scheme advertises on the serve surface
/// (MemorySystem::capabilities).
enum ServeCapability : std::uint32_t {
  /// serve(plan, ctx) can fan its value phase across ctx.executor()'s
  /// workers in request ranges (a plan's requests are distinct
  /// variables, so the ranges are independent work units).
  kGroupParallel = 1u << 0,
};

/// Which serve backend a scheme instance runs
/// (MemorySystem::set_serve_backend; swept by core::SchemeSpec::backend).
enum class ServeBackend : std::uint8_t {
  kSerial,         ///< one thread serves the whole plan (the default)
  kGroupParallel,  ///< request ranges fan across the context's executor
};

[[nodiscard]] const char* to_string(ServeBackend backend);

/// Interface all shared-memory organizations implement.
///
/// Semantics contract (matching the P-RAM step semantics): all reads
/// observe the state prior to this step's writes; reads/writes within a
/// call are one P-RAM step. A step's reads and writes each hold distinct
/// variables (concurrent accesses are combined before the memory sees
/// them).
class MemorySystem {
 public:
  // Out of line: the step() adapter's scratch type is private to
  // memory_system.cpp.
  MemorySystem();
  virtual ~MemorySystem();
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  // ----- the one serve entry --------------------------------------------
  //
  // serve(plan, ctx) is how every organization and wrapper serves a step:
  // the caller combines the step ONCE into an arena-backed
  // AccessPlan (pram::PlanBuilder, or pram::Machine from its own
  // combining tables) and hands the per-step I/O surface — output span,
  // outage flags, executor — in one caller-owned ServeContext. The
  // contract:
  //
  //  * Outage flags travel only through the context (ctx.enable_flags /
  //    ctx.flag_read); wrappers read their inner memory's flags there.
  //  * serve() may keep per-instance scratch; it is called from one
  //    thread at a time. A scheme advertising kGroupParallel
  //    (capabilities()) and switched to ServeBackend::kGroupParallel may
  //    additionally fan request ranges of its value phase across
  //    ctx.executor()'s workers — but chunk results must merge
  //    DETERMINISTICALLY: output slots disjoint by construction,
  //    telemetry accumulated per chunk and folded in chunk order, never
  //    atomics racing on shared counters. Group-parallel serve must be
  //    bit-identical to serial serve at ANY worker count.
  //  * Every serve advances the engine step clock (advance_step_clock)
  //    once, so fault hooks and probes share one clock instead of
  //    per-scheme counters.

  /// Serve one combined step. ctx.read_values()[i] receives the value of
  /// plan.reads[i]; ctx.flags() marks the reads served as flagged losses.
  virtual MemStepCost serve(const AccessPlan& plan, ServeContext& ctx) = 0;

  /// Serve one already-combined step without a caller-built plan: builds
  /// the step's plan, serves it and returns the cost. read_values[i]
  /// receives the value of reads[i]; flagged_reads() then holds the
  /// step's outage flags. The plan scratch is allocated on the first
  /// call, so memories served only through serve() never carry it.
  /// FlatMemory, the reference memory, overrides it to serve without a
  /// plan; it stays virtual because benchmark/timed_memory.hpp overrides
  /// it too.
  virtual MemStepCost step(std::span<const VarId> reads,
                           std::span<Word> read_values,
                           std::span<const VarWrite> writes);

  /// Outage flags of the most recent step() call: flags[i] != 0 means
  /// reads[i] fell below the scheme's reconstruction threshold and its
  /// value is a FLAGGED loss, not a candidate lie. Empty when that step
  /// flagged nothing. On the serve path ServeContext::flags() carries
  /// them. Virtual only because benchmark/timed_memory.hpp overrides it.
  [[nodiscard]] virtual std::span<const std::uint8_t> flagged_reads() const;

  /// Stable per-variable grouping key for plan building, for a scheme
  /// whose serve unit is larger than a variable (IdaMemory: the block).
  /// Must be immutable for the memory's lifetime and safe to call
  /// concurrently with serve() — the plan generator thread runs ahead of
  /// the serving thread.
  [[nodiscard]] virtual std::uint64_t plan_group_of(VarId var) const {
    return var.index();
  }

  /// True when plan_group_of defines a grouping worth materializing; the
  /// builder skips the group arrays (and their sort) otherwise. Only
  /// IdaMemory (and wrappers forwarding to it) wants groups.
  [[nodiscard]] virtual bool wants_plan_groups() const { return false; }

  /// Serve-surface capability bits (ServeCapability). A scheme that can
  /// fan its value phase across executor workers advertises
  /// kGroupParallel; the factory only switches backends capabilities
  /// allow.
  [[nodiscard]] virtual std::uint32_t capabilities() const { return 0; }

  /// Select the serve backend. Returns the backend actually in effect:
  /// schemes without the matching capability stay on kSerial. Like
  /// set_fault_hooks: switch before serving traffic, never between
  /// steps.
  virtual ServeBackend set_serve_backend(ServeBackend backend) {
    (void)backend;
    return ServeBackend::kSerial;
  }

  /// Steps served so far — the engine-wide step clock. serve() advances
  /// it exactly once per P-RAM step (schemes call advance_step_clock at
  /// its top); fault hooks, scrub passes, and peek/poke verification all
  /// read this one clock instead of per-scheme stamp counters.
  [[nodiscard]] std::uint64_t steps_served() const { return step_clock_; }

  /// Number of addressable shared variables (m).
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Debug/verification access: current committed value of a variable.
  [[nodiscard]] virtual Word peek(VarId var) const = 0;

  /// Verification hook: initialize a variable (not a timed operation).
  virtual void poke(VarId var, Word value) = 0;

  // ----- scheme-agnostic introspection (the unified engine surface) -----

  /// Storage blow-up over the ideal flat memory: r for replicated
  /// schemes, d/b for IDA dispersal, 1 for single-copy organizations.
  [[nodiscard]] virtual double storage_redundancy() const { return 1.0; }

  /// The variable->modules map driving this scheme, when one exists
  /// (lets drivers build map-adversarial batches); nullptr otherwise.
  [[nodiscard]] virtual const memmap::MemoryMap* memory_map() const {
    return nullptr;
  }

  /// Number of memory modules the organization spreads storage over
  /// (M); 1 for monolithic memories. Sizes the fault model's kill set.
  [[nodiscard]] virtual std::uint32_t num_modules() const { return 1; }

  /// Install copy/share-level fault injection. Returns true when the
  /// scheme applies the hooks itself at its replica/share granularity
  /// (divergent copies, missing shares); false when it has no such units
  /// to fault, and faults::FaultableMemory refuses to wrap it.
  /// Passing nullptr clears a previous installation. Install before
  /// serving traffic, never between steps: faults whose onset should be
  /// mid-run carry a dynamic onset step inside the hooks (pram::FaultHooks
  /// queries are step-stamped), the installation itself stays static.
  virtual bool set_fault_hooks(const FaultHooks* hooks) {
    (void)hooks;
    return false;
  }

  /// Background repair pass: spend up to `budget` units of scrub work
  /// (one unit ~ one storage entity examined) re-replicating copies /
  /// re-dispersing shares that faults have degraded, relocating storage
  /// off dead modules where the organization supports it. Called by the
  /// driver BETWEEN steps (never concurrently with serve()/step()); a
  /// pass must be a state no-op whenever nothing is degraded, so scrub
  /// under fault rate 0 leaves every subsequent read bit-identical.
  /// Default: nothing to rebuild (single-copy and wrapper organizations).
  virtual ScrubResult scrub(std::uint64_t budget) {
    (void)budget;
    return {};
  }

  /// Reliability telemetry accumulated while serving under fault hooks
  /// (all-zero when none are installed or the scheme ignores them).
  [[nodiscard]] virtual ReliabilityStats reliability() const { return {}; }

  /// Scheme-chosen worst-case traffic: up to `count` distinct variables
  /// crafted against the scheme's own placement knowledge (e.g. the
  /// hashed baseline's known-hash preimage attack). Empty when the
  /// scheme has no better adversary than the map-based generator.
  [[nodiscard]] virtual std::vector<VarId> adversarial_vars(
      std::uint32_t count, std::uint64_t seed) const {
    (void)count;
    (void)seed;
    return {};
  }

  // ----- durability surface: snapshot / restore -------------------------
  //
  // snapshot() serializes the engine's committed state as one byte
  // stream: a fixed frame (magic, format version, step clock, m) followed
  // by the virtual snapshot_body payload. restore() validates the frame,
  // restores the step clock, then replays the body. The contract:
  //
  //  * restore() targets a FRESHLY CONSTRUCTED instance of the SAME
  //    configuration (scheme spec, seeds): derived state — memory maps,
  //    share placements, engine schedules — is rebuilt by the
  //    constructor, the snapshot carries only the mutable committed
  //    state on top of it.
  //  * The default bodies round-trip the sparse committed image via
  //    peek/poke (every variable whose value differs from the initial
  //    0), so all ten SchemeKinds — and any wrapper whose peek/poke is
  //    faithful — snapshot unmodified. Organizations with native
  //    storage (majority copy rows, IDA share rows) override the body
  //    pair to preserve stamps/placement overlays bit for bit; wrappers
  //    (cache, faults) nest their inner memory's full frame.
  //  * snapshot() is deliberately NON-const: a wrapper may have to flush
  //    internal buffers into its inner scheme first (cache dirty lines —
  //    the write-back MUST precede serialization or the checkpoint
  //    captures stale backing state). Observable values never change.
  //  * restore() returns false on any frame/body mismatch (wrong magic,
  //    wrong m, truncated stream); the target's state is then
  //    unspecified and the caller must discard it.
  //
  // Both calls run BETWEEN steps, on the serving thread, like scrub().

  void snapshot(SnapshotSink& sink);
  [[nodiscard]] bool restore(SnapshotSource& source);

  /// Attach (or detach, with nullptr) an observability sink. The sink is
  /// caller-owned and must outlive the attachment; schemes write
  /// counters, phase timings, and journal events into it while serving.
  /// Attach before serving traffic, like set_fault_hooks. Wrappers
  /// forward the attachment to their inner memory so both layers report
  /// into one sink. A no-op (hooks compile away) when obs::kEnabled is
  /// false.
  virtual void set_observer(obs::Sink* sink) { obs_ = sink; }

  /// The currently attached sink (nullptr when none).
  [[nodiscard]] obs::Sink* observer() const { return obs_; }

 protected:
  /// Serialize the mutable committed state (the part the constructor
  /// cannot rebuild). Default: the sparse peek image — a count followed
  /// by (var, value) pairs for every variable peeking non-zero.
  virtual void snapshot_body(SnapshotSink& sink);

  /// Replay a snapshot_body stream onto a freshly constructed instance.
  /// Default: poke each recorded pair. Returns false on a malformed or
  /// truncated stream.
  [[nodiscard]] virtual bool restore_body(SnapshotSource& source);

  /// Advance the engine step clock by one P-RAM step and return the new
  /// stamp. Called exactly once per served step, by serve() (never by
  /// the step() adapter, which delegates to serve(); FlatMemory's serve()
  /// delegates the other way, so its step() advances the clock).
  std::uint64_t advance_step_clock() { return ++step_clock_; }

  // ----- observability hook helpers (no-ops unless a sink is attached,
  // and compiled away entirely under PRAMSIM_OBS=OFF) -------------------

  /// Record a journal event stamped with the current step clock.
  void obs_event(obs::EventKind kind, std::uint64_t entity,
                 std::uint32_t unit = 0, std::uint64_t a = 0,
                 std::uint64_t b = 0) const {
    if constexpr (obs::kEnabled) {
      if (obs_ != nullptr) {
        obs_->journal.append(steps_served(), kind, entity, unit, a, b);
      }
    }
  }

  /// Bump a named counter.
  void obs_count(std::string_view name, std::uint64_t delta = 1) const {
    if constexpr (obs::kEnabled) {
      if (obs_ != nullptr) {
        obs_->metrics.add(name, delta);
      }
    }
  }

  /// Phase-timer target for the current step: the attached sink's phase
  /// table when this step is sampled, nullptr otherwise (ScopedPhase on a
  /// nullptr set performs zero clock reads).
  [[nodiscard]] obs::PhaseSet* obs_timing() const {
    if constexpr (obs::kEnabled) {
      if (obs_ != nullptr && obs_->sample(steps_served())) {
        return &obs_->phases;
      }
    }
    return nullptr;
  }

  /// Attached sink; pointer (not owned) so const serve paths can write
  /// telemetry through it.
  obs::Sink* obs_ = nullptr;

 private:
  /// step()'s plan builder and context, created on its first call.
  struct StepAdapter;
  std::unique_ptr<StepAdapter> step_adapter_;
  std::uint64_t step_clock_ = 0;  ///< P-RAM steps served (fault clock)
};

/// The ideal P-RAM's own memory: a flat array with unit access time.
/// Serves as the reference implementation for end-to-end equivalence tests.
/// Its step() override serves a combined step directly, without building
/// a plan, so a replica checked beside a served memory adds no plan
/// scratch.
class FlatMemory final : public MemorySystem {
 public:
  explicit FlatMemory(std::uint64_t m_cells);

  MemStepCost serve(const AccessPlan& plan, ServeContext& ctx) override;
  MemStepCost step(std::span<const VarId> reads, std::span<Word> read_values,
                   std::span<const VarWrite> writes) override;

  [[nodiscard]] std::uint64_t size() const override { return cells_.size(); }
  [[nodiscard]] Word peek(VarId var) const override;
  void poke(VarId var, Word value) override;

 private:
  std::vector<Word> cells_;
};

}  // namespace pramsim::pram
