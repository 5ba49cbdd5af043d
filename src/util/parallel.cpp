#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace pramsim::util {

namespace {
std::atomic<std::size_t> g_workers_override{0};
}  // namespace

void set_parallel_workers_override(std::size_t workers) {
  g_workers_override.store(workers, std::memory_order_relaxed);
}

std::size_t parallel_workers(std::size_t n) {
  const std::size_t forced = g_workers_override.load(std::memory_order_relaxed);
  if (forced != 0) {
    return std::clamp<std::size_t>(forced, 1, std::max<std::size_t>(n, 1));
  }
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  // Below ~4 items per worker the thread spawn cost dominates.
  return std::clamp<std::size_t>(n / 4, 1, hw);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t workers = parallel_workers(n);
  if (workers == 1) {
    serial_for(begin, end, fn);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) {
      break;
    }
    threads.emplace_back([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) {
        fn(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void serial_for(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) {
    fn(i);
  }
}

// ---- Executor: parked worker pool for intra-step fan-out -------------------

namespace {
/// Leaf items per worker below which fanning out costs more than it buys.
constexpr std::size_t kExecutorGrain = 768;
/// Pool size cap: intra-step fan-out should never grab the whole host.
constexpr std::size_t kExecutorMaxThreads = 8;

// The dispatch ticket packs (generation, chunk count, chunks claimed) into
// one atomic word, so a claim is one compare-exchange that can only land
// on the live dispatch.
constexpr unsigned kCountBits = 8;
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kCountBits) - 1;
static_assert(kExecutorMaxThreads + 1 <= kCountMask,
              "a dispatch's chunk count must fit the ticket's count fields");
constexpr std::uint64_t generation_of(std::uint64_t ticket) {
  return ticket >> (2 * kCountBits);
}
constexpr std::uint64_t make_ticket(std::uint64_t generation,
                                    std::uint64_t chunks) {
  return generation << (2 * kCountBits) | chunks << kCountBits;
}

/// How many times a pool thread polls for the next dispatch, and a
/// dispatcher for chunks still running, before parking on a condition
/// variable: about a millisecond, as a thread yields its core after each
/// poll (0.25 us a yield on a 4-vCPU Xeon VM). A served step's serial
/// part (schedule, plan build) lasts a few hundred microseconds; a thread
/// that parked inside that gap would need a wake-up on every step, and
/// under a hypervisor a wake-up costs tens of microseconds, more or less
/// at random.
constexpr std::uint32_t kPolls = 4096;

/// Polls ready() until it holds or the polls run out; returns its last
/// value. Yielding between polls keeps a waiting thread from starving
/// the one it waits for when threads outnumber cores; on a single
/// hardware thread it checks once.
template <typename Ready>
bool poll_until(const Ready& ready) {
  static const std::uint32_t polls =
      std::thread::hardware_concurrency() > 1 ? kPolls : 0;
  for (std::uint32_t i = 0; i < polls; ++i) {
    if (ready()) {
      return true;
    }
    std::this_thread::yield();
  }
  return ready();
}
}  // namespace

struct Executor::Pool {
  ~Pool() {
    {
      const std::lock_guard lock(mutex);
      stopping.store(true, std::memory_order_relaxed);
      const std::uint64_t next =
          generation_of(ticket.load(std::memory_order_relaxed)) + 1;
      ticket.store(make_ticket(next, 0), std::memory_order_release);
    }
    wake.notify_all();
    for (auto& t : threads) {
      t.join();
    }
  }

  /// Starts pool threads until `n` exist. The threads are interchangeable:
  /// a chunk goes to whichever thread claims it first.
  void grow(std::size_t n) {
    while (threads.size() < n) {
      threads.emplace_back([this] { worker_loop(); });
    }
  }

  /// Dispatch one job: the non-empty chunks of a `workers`-way partition
  /// of [0, n). The calling thread claims chunks like any pool thread, so
  /// a thread that wakes late finds its share already served and the
  /// step never waits on a wake-up. Who serves a chunk changes nothing:
  /// the partition is a pure function of (n, workers) and each chunk
  /// receives its index.
  void dispatch(std::size_t n, std::size_t workers, const ChunkFn& fn) {
    const std::size_t chunk = (n + workers - 1) / workers;
    const std::size_t chunks = (n + chunk - 1) / chunk;
    // Job fields are written before the ticket's release store and stay
    // fixed until every chunk has completed, which is after every claim.
    job.store(&fn, std::memory_order_relaxed);
    job_n.store(n, std::memory_order_relaxed);
    job_chunk.store(chunk, std::memory_order_relaxed);
    remaining.store(chunks, std::memory_order_relaxed);
    {
      // The mutex pairs the new ticket with parked threads' predicate
      // check; polling threads see the release store alone.
      const std::lock_guard lock(mutex);
      const std::uint64_t next =
          generation_of(ticket.load(std::memory_order_relaxed)) + 1;
      ticket.store(make_ticket(next, chunks), std::memory_order_release);
    }
    if (sleepers.load(std::memory_order_acquire) > 0) {
      wake.notify_all();
    }
    serve_chunks();
    // Every chunk is claimed; any still running is on a pool thread.
    const auto finished = [&] {
      return remaining.load(std::memory_order_acquire) == 0;
    };
    if (!poll_until(finished)) {
      std::unique_lock lock(mutex);
      done.wait(lock, finished);
    }
  }

  /// Claims and serves chunks of the live dispatch until none is left.
  void serve_chunks() {
    std::uint64_t t = ticket.load(std::memory_order_acquire);
    while ((t & kCountMask) < ((t >> kCountBits) & kCountMask)) {
      if (!ticket.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        continue;
      }
      const std::size_t c = t & kCountMask;
      const std::size_t lo = c * job_chunk.load(std::memory_order_relaxed);
      const std::size_t hi =
          std::min(job_n.load(std::memory_order_relaxed),
                   lo + job_chunk.load(std::memory_order_relaxed));
      (*job.load(std::memory_order_relaxed))(c, lo, hi);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk done: pair with a possibly-parked dispatcher (the
        // empty critical section orders us against its wait).
        { const std::lock_guard lock(mutex); }
        done.notify_one();
      }
      t = ticket.load(std::memory_order_acquire);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    const auto fresh = [&] {
      return generation_of(ticket.load(std::memory_order_acquire)) != seen;
    };
    for (;;) {
      if (!poll_until(fresh)) {
        sleepers.fetch_add(1, std::memory_order_acq_rel);
        std::unique_lock lock(mutex);
        wake.wait(lock, fresh);  // the destructor moves the ticket too
        sleepers.fetch_sub(1, std::memory_order_acq_rel);
      }
      // Adopt the generation before reading the stop flag. The destructor
      // sets the flag before its release store of the last ticket, so a
      // thread that adopts that ticket also sees the flag. In the other
      // order, the destructor could land between the two reads: the
      // thread would adopt the last generation, wait for one that never
      // comes, and the join would hang.
      seen = generation_of(ticket.load(std::memory_order_acquire));
      if (stopping.load(std::memory_order_relaxed)) {
        return;
      }
      serve_chunks();
    }
  }

  std::mutex mutex;
  std::condition_variable wake;
  std::condition_variable done;
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<const ChunkFn*> job{nullptr};
  std::atomic<std::size_t> job_n{0};
  std::atomic<std::size_t> job_chunk{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> sleepers{0};
  std::atomic<bool> stopping{false};
  std::vector<std::thread> threads;  // last: the threads use every member
};

Executor::Executor() = default;
Executor::~Executor() = default;

std::size_t Executor::plan_workers(std::size_t n) const {
  if (n <= 1) {
    return 1;
  }
  const std::size_t forced =
      g_workers_override.load(std::memory_order_relaxed);
  if (forced != 0) {
    // Cap at the pool size here, not just in run_with: callers size
    // per-chunk scratch from this value, so it must equal the count the
    // dispatcher actually partitions with.
    return std::min({forced, n, kExecutorMaxThreads + 1});
  }
  // hardware_concurrency() is a syscall; this runs once per served step,
  // so cache it (the core count does not change under us).
  static const std::size_t hw = std::min<std::size_t>(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1),
      kExecutorMaxThreads + 1);
  return std::clamp<std::size_t>(n / kExecutorGrain, 1, hw);
}

void Executor::run_with(std::size_t n, std::size_t workers,
                        const ChunkFn& fn) {
  if (n == 0) {
    return;
  }
  // Clamp to the pool's size cap plus the caller, as plan_workers does.
  workers = std::clamp<std::size_t>(workers, 1,
                                    std::min(n, kExecutorMaxThreads + 1));
  if (workers <= 1) {
    fn(0, 0, n);
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<Pool>();
  }
  pool_->grow(workers - 1);
  pool_->dispatch(n, workers, fn);
}

}  // namespace pramsim::util
