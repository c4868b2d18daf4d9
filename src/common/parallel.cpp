#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {

namespace {

/// Set for a pool worker's whole life: nested parallel sections check
/// OnWorkerThread() and run inline instead of re-entering the pool.
thread_local bool t_on_worker_thread = false;

}  // namespace

bool OnWorkerThread() { return t_on_worker_thread; }

int DefaultThreadCount() {
  if (const char* env = std::getenv("ACOBE_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ResolveThreadCount(int configured) {
  return configured > 0 ? configured : DefaultThreadCount();
}

ThreadPool::ThreadPool(int threads) {
  const int n = ResolveThreadCount(threads);
  ACOBE_GAUGE_MAX("pool.threads", n);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      t_on_worker_thread = true;
      if (telemetry::TracingEnabled()) {
        telemetry::SetCurrentThreadName("pool-worker-" + std::to_string(i));
      }
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ACOBE_COUNT("pool.tasks_submitted", 1);
    ACOBE_HISTOGRAM("pool.queue_depth", queue_.size());
    ACOBE_GAUGE_MAX("pool.queue_depth_peak", queue_.size());
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int begin, int end,
                             const std::function<void(int)>& fn) {
  if (begin >= end) return;
  const int span = end - begin;
  const int n = std::min(size(), span);
  if (n <= 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  auto next = std::make_shared<std::atomic<int>>(begin);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (int t = 0; t < n; ++t) {
    futures.push_back(Submit([next, failed, end, &fn] {
      for (;;) {
        const int i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= end || failed->load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          failed->store(true, std::memory_order_relaxed);
          throw;  // carried to the caller by the future
        }
      }
    }));
  }
  std::exception_ptr error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Span "pool.task" is how utilization shows up: the fraction of a
    // worker's trace row covered by pool.task events is its busy share.
    telemetry::TraceSpan span("pool.task");
    task();  // exceptions land in the packaged_task's future
    ACOBE_COUNT("pool.tasks_executed", 1);
  }
}

ThreadPool& SharedPool(int threads) {
  const int n = ResolveThreadCount(threads);
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<ThreadPool>& slot = pools[n];
  if (!slot) slot = std::make_unique<ThreadPool>(n);
  return *slot;
}

void ParallelFor(int begin, int end, int threads,
                 const std::function<void(int)>& fn) {
  if (begin >= end) return;
  // The pool is keyed by the resolved count, not by min(count, span):
  // one thread count means one pool, however short the range.
  // ThreadPool::ParallelFor caps its tasks at the span itself.
  const int n = ResolveThreadCount(threads);
  ACOBE_COUNT("parallel.for_calls", 1);
  if (n <= 1 || end - begin <= 1 || OnWorkerThread()) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  SharedPool(n).ParallelFor(begin, end, fn);
}

}  // namespace acobe
