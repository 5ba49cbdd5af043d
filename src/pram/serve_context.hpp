// ServeContext: everything one serve() call needs beyond the plan itself.
//
// A ServeContext is the whole per-step I/O surface in one object the
// caller owns and the scheme fills:
//
//   * read_values()  - the output span (read_values[i] <- plan.reads[i]);
//   * step()         - the step number the scheme stamped this serve with
//                      (the engine-wide clock in MemorySystem advances it);
//   * outage flags   - per-read "this value is a FLAGGED loss, not a
//                      candidate lie" bits; the context is the only
//                      channel they travel on (MemorySystem::step's
//                      adapter reads them back out of its own context);
//   * executor()     - a util::Executor for schemes whose capabilities()
//                      include kGroupParallel: the plan's module groups
//                      are independent work units, and the executor fans
//                      them across parked worker threads.
//
// Ownership: the CALLER (driver, bench, test) owns the context and the
// executor it points at; both outlive the serve() call. A context is
// reused across steps via bind(), which re-arms the output span and
// clears the per-step state (flags, step stamp). Schemes must treat the
// context as per-step scratch: nothing in it survives bind().
//
// Thread-safety inside group-parallel serve: flag_read() writes one
// std::uint8_t per read index — indices are disjoint across groups, so
// concurrent flagging from group workers is race-free (this is why the
// flags are bytes, not std::vector<bool> bits). enable_flags() must be
// called BEFORE fanning out (it sizes the array).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pram/types.hpp"

namespace pramsim::util {
class Executor;  // forward declaration: see util/parallel.hpp
}

namespace pramsim::pram {

class ServeContext {
 public:
  ServeContext() = default;
  explicit ServeContext(std::span<Word> read_values,
                        util::Executor* executor = nullptr)
      : read_values_(read_values), executor_(executor) {}

  ServeContext(const ServeContext&) = delete;
  ServeContext& operator=(const ServeContext&) = delete;

  /// Re-arm for the next step: new output span, per-step state cleared.
  void bind(std::span<Word> read_values) {
    read_values_ = read_values;
    flags_.clear();
    step_ = 0;
  }

  /// Attach (or detach, with nullptr) the worker-thread handle. Schemes
  /// without kGroupParallel — and group-parallel schemes given no
  /// executor — serve every group on the calling thread.
  void set_executor(util::Executor* executor) { executor_ = executor; }
  [[nodiscard]] util::Executor* executor() const { return executor_; }

  /// Output span: read_values()[i] receives the value of plan.reads[i].
  [[nodiscard]] std::span<Word> read_values() const { return read_values_; }

  // ----- step clock (stamped by the serving scheme) -----

  /// The engine step number this serve was stamped with (0 until the
  /// scheme calls stamp_step). Wrappers and probes read the clock here
  /// instead of growing per-scheme counters.
  [[nodiscard]] std::uint64_t step() const { return step_; }
  void stamp_step(std::uint64_t step) { step_ = step; }

  // ----- per-read outage flags -----

  /// Materialize the flag array (one byte per read, all clear). Schemes
  /// serving under fault hooks call this up front, before any group
  /// fan-out.
  void enable_flags() { flags_.assign(read_values_.size(), 0); }

  /// Mark plan.reads[i] as a flagged loss (below the scheme's
  /// reconstruction threshold). Requires enable_flags() this step.
  /// Safe to call concurrently for distinct i.
  void flag_read(std::size_t i) { flags_[i] = 1; }

  /// Per-read outage flags; empty when the scheme flagged nothing (or
  /// served without fault hooks). flags()[i] != 0 means plan.reads[i] is
  /// a KNOWN loss the trace-consistency oracle must not score as a lie.
  [[nodiscard]] std::span<const std::uint8_t> flags() const {
    return flags_;
  }

 private:
  std::span<Word> read_values_;
  std::vector<std::uint8_t> flags_;
  std::uint64_t step_ = 0;
  util::Executor* executor_ = nullptr;
};

}  // namespace pramsim::pram
