#pragma once

// Minimal parallel runtime for the pipeline's embarrassingly parallel
// hot paths (per-aspect training, per-user scoring, per-entity
// deviation computation).
//
// Thread-count resolution, everywhere a `threads` knob appears:
//   > 0  — use exactly that many workers;
//   == 0 — use the ACOBE_THREADS environment variable if set and
//          positive, otherwise std::thread::hardware_concurrency().
// A resolved count of 1 runs inline on the calling thread (no pool),
// which keeps single-threaded runs bit-identical to the pre-parallel
// code and makes `ACOBE_THREADS=1` a faithful serial reference.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace acobe {

/// Workers from ACOBE_THREADS (if set and positive) else hardware
/// concurrency; always >= 1.
int DefaultThreadCount();

/// Applies the resolution rule above to a config knob. Always >= 1.
int ResolveThreadCount(int configured);

/// Fixed-size pool of worker threads consuming a shared task queue.
/// Construction spawns the workers; destruction drains the queue and
/// joins them. Submit is safe from any thread (including from inside a
/// task, since workers never block on other tasks).
class ThreadPool {
 public:
  /// `threads` is resolved via ResolveThreadCount; the pool always has
  /// at least one worker.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`; the future resolves when it finishes (or rethrows
  /// what it threw).
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [begin, end) on the pool's workers, under
  /// acobe::ParallelFor's iteration contract, and blocks until done,
  /// rethrowing the first iteration exception.
  /// Must not be called from inside a pool task (the caller waits on
  /// futures served by the same workers).
  void ParallelFor(int begin, int end, const std::function<void(int)>& fn);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// True while the calling thread is executing inside a ThreadPool
/// worker. Nested parallel sections use this to degrade to inline
/// execution instead of deadlocking on their own pool or
/// oversubscribing the machine.
bool OnWorkerThread();

/// Process-wide cache of persistent pools, keyed by resolved worker
/// count: the first request for a given count spawns the pool, later
/// requests reuse its warm workers. Pools live for the process (their
/// destructors join at exit). `threads` is resolved via
/// ResolveThreadCount and must resolve to >= 2 (a count of 1 means
/// "run inline" and never needs a pool).
ThreadPool& SharedPool(int threads);

/// Runs fn(i) for every i in [begin, end) on SharedPool(threads)
/// (`threads` resolved via ResolveThreadCount), so repeated phases
/// reuse warm workers. Iterations are claimed dynamically from a shared
/// counter, so callers must make iterations independent: fn must not
/// touch shared mutable state except through disjoint writes (e.g.
/// element i of an output array). Blocks until every iteration
/// finished; the first exception thrown by any iteration is rethrown on
/// the calling thread. Runs inline (serial, in order) when the resolved
/// count is 1, the range has at most one element, or the caller is
/// already on a worker thread (nested parallelism degrades to serial
/// rather than blocking a worker on its own pool).
void ParallelFor(int begin, int end, int threads,
                 const std::function<void(int)>& fn);

}  // namespace acobe
