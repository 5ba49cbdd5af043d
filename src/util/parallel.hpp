// Host-side parallelism: shard sweeps and intra-step fan-out.
//
// Experiment harnesses run many independent trials (Monte-Carlo map
// verification, per-seed step simulations). parallel_for partitions
// [begin, end) into contiguous blocks, one per worker thread; the partition
// depends only on (range, worker count), and callers derive per-index RNG
// streams from the index, so results are deterministic regardless of
// scheduling. An Executor fans one served step's value phase across a
// parked worker pool; its chunk geometry lives here too, as a pure
// function of (item count, worker count), so a served step is
// bit-identical at any worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace pramsim::util {

/// Number of workers parallel_for will use for a range of `n` items.
[[nodiscard]] std::size_t parallel_workers(std::size_t n);

/// Force parallel_for to use exactly min(workers, n) workers (0 restores
/// the automatic policy). The partition depends only on (range, worker
/// count), so A/B determinism tests pin 1 vs hardware_concurrency and
/// assert bit-identical results. Not thread-safe against concurrent
/// parallel_for calls; set it from the orchestrating thread only.
void set_parallel_workers_override(std::size_t workers);

/// Invoke fn(i) for every i in [begin, end), possibly from multiple
/// threads. fn must not throw; indices are disjoint across workers.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Force-serial variant for A/B determinism tests.
void serial_for(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn);

/// Persistent worker pool for fine-grained INTRA-step fan-out (the
/// kGroupParallel serve backend, which splits a step's value phase into
/// request ranges). parallel_for spawns threads per call, which is fine
/// for coarse shards but dominates a sub-millisecond serve step; an
/// Executor keeps its workers between dispatches (polling for about a
/// millisecond, then parked on a condition variable), and the calling
/// thread serves every chunk no worker has claimed yet, so a step never
/// waits on a worker's wake-up.
///
/// Determinism contract: run_with() partitions [0, n) into contiguous
/// chunks, one per worker, and the partition depends only on (n, worker
/// count). Worker count honors set_parallel_workers_override, so A/B
/// tests can pin 1 vs many — callers must make chunk results
/// order-independent (disjoint output slots, or commutative telemetry
/// merged in chunk order) so ANY worker count yields bit-identical
/// results.
///
/// Not thread-safe: one dispatch at a time per Executor (the serve
/// contract already guarantees one serving thread).
class Executor {
 public:
  /// A chunk of a fan-out: fn(chunk, begin, end) serves [begin, end).
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  Executor();
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Workers a fan-out of `n` leaf items would get: min(override, n)
  /// when an override is set, else scaled so each worker gets a
  /// meaningful slice of the items (tiny steps stay serial). Never
  /// exceeds the pool size, so it is the chunk count run_with uses.
  [[nodiscard]] std::size_t plan_workers(std::size_t n) const;

  /// Invoke fn(chunk, begin, end) over a contiguous partition of [0, n)
  /// into `workers` chunks — pass a plan_workers() result: chunk c
  /// covers [c * ceil(n / workers), min(n, (c + 1) * ceil(n / workers)))
  /// and receives its index c, so per-chunk scratch the caller sized
  /// from that count indexes by it. Empty chunks are not invoked. Any
  /// chunk may run on the calling thread or on a pool thread, whichever
  /// claims it first; blocks until every chunk completes. fn must not
  /// throw.
  void run_with(std::size_t n, std::size_t workers, const ChunkFn& fn);

 private:
  struct Pool;
  std::unique_ptr<Pool> pool_;  ///< lazily created on first parallel run
};

}  // namespace pramsim::util
