// Thread-pool / ParallelFor unit tests, plus the determinism guarantee
// the parallel runtime is built on: training and scoring an ensemble
// with N workers is bit-identical to the ACOBE_THREADS=1 serial run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "behavior/normalized_day.h"
#include "common/parallel.h"
#include "core/critic.h"
#include "core/ensemble.h"
#include "features/measurement_cube.h"

using namespace acobe;

namespace {

TEST(ParallelTest, ResolveThreadCountPrefersConfigured) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-2), 1);
}

TEST(ParallelTest, ResolveThreadCountHonorsEnv) {
  setenv("ACOBE_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  EXPECT_EQ(ResolveThreadCount(2), 2);  // explicit config wins
  setenv("ACOBE_THREADS", "0", 1);      // non-positive values are ignored
  EXPECT_GE(ResolveThreadCount(0), 1);
  unsetenv("ACOBE_THREADS");
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter(0);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FutureCarriesException) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter(0);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool waits for all queued work
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(0, 257, [&](int i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, CoversEveryIndexOnceAtAnyThreadCount) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(3, 103, threads, [&](int i) { ++hits[i - 3]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(5, 5, 4, [](int) { FAIL() << "must not be called"; });
  ParallelFor(7, 2, 4, [](int) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, RethrowsIterationException) {
  EXPECT_THROW(
      ParallelFor(0, 64, 4,
                  [](int i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

// Thread ids seen by the iterations of one parallel call.
class ThreadIdSet {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
  }
  // Add() from an iteration long enough for spawned threads to start.
  void AddSlowly() {
    Add();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::set<std::thread::id> ids() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_;
  }

 private:
  std::mutex mutex_;
  std::set<std::thread::id> ids_;
};

TEST(ParallelForTest, NestedCallRunsInlineOnWorkerThread) {
  // From a pool task: the nested section must stay on the task's thread
  // instead of spawning threads - 1 fresh ones.
  ThreadIdSet from_pool;
  std::thread::id task_thread;
  SharedPool(4)
      .Submit([&] {
        task_thread = std::this_thread::get_id();
        ParallelFor(0, 32, 4, [&](int) { from_pool.AddSlowly(); });
      })
      .get();
  EXPECT_EQ(from_pool.ids(), std::set<std::thread::id>{task_thread});

  // From a ParallelFor worker: each inner call uses one thread only.
  std::vector<std::set<std::thread::id>> inner(2);
  ParallelFor(0, 2, 2, [&](int outer) {
    ThreadIdSet ids;
    ParallelFor(0, 32, 4, [&](int) { ids.AddSlowly(); });
    inner[outer] = ids.ids();
  });
  for (const auto& ids : inner) EXPECT_EQ(ids.size(), 1u);
}

TEST(ParallelForTest, ShortRangeReusesThePoolOfItsThreadCount) {
  // Pin every worker of SharedPool(4) at once to learn their ids.
  ThreadIdSet pool_workers;
  std::atomic<int> arrived(0);
  std::vector<std::future<void>> pinned;
  for (int t = 0; t < 4; ++t) {
    pinned.push_back(SharedPool(4).Submit([&] {
      pool_workers.Add();
      ++arrived;
      while (arrived.load() < 4) std::this_thread::yield();
    }));
  }
  for (auto& f : pinned) f.get();
  ASSERT_EQ(pool_workers.ids().size(), 4u);

  // A 3-iteration range at threads=4 runs on that pool, not on a
  // second, 3-worker one.
  ThreadIdSet used;
  std::atomic<int> started(0);
  ParallelFor(0, 3, 4, [&](int) {
    used.Add();
    ++started;
    while (started.load() < 3) std::this_thread::yield();
  });
  const std::set<std::thread::id> workers = pool_workers.ids();
  EXPECT_EQ(used.ids().size(), 3u);
  for (const std::thread::id& id : used.ids()) {
    EXPECT_TRUE(workers.count(id)) << "ran outside SharedPool(4)";
  }
}

// --- Determinism of the parallel pipeline ---------------------------------

MeasurementCube SyntheticCube(int users, int days, int features, int frames) {
  MeasurementCube cube(Date(2010, 1, 2), days, features, frames);
  Rng rng(17);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(u);
    for (int f = 0; f < features; ++f) {
      for (int d = 0; d < days; ++d) {
        for (int t = 0; t < frames; ++t) {
          cube.At(u, f, d, t) = static_cast<float>(rng.NextPoisson(3.0));
        }
      }
    }
  }
  return cube;
}

std::vector<AspectGroup> TwoAspects() {
  return {{"a0", {0, 1, 2}}, {"a1", {3, 4, 5}}};
}

ScoreGrid TrainAndScore(const SampleBuilder& builder, int users,
                        int threads) {
  EnsembleConfig cfg;
  cfg.encoder_dims = {16, 8};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 1e-3f;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 16;
  cfg.threads = threads;
  AspectEnsemble ensemble(TwoAspects(), cfg);
  ensemble.Train(builder, users, 0, 30);
  return ensemble.Score(builder, users, 30, 50);
}

TEST(ParallelDeterminismTest, TrainScoreBitIdenticalToSerial) {
  const int users = 8;
  const MeasurementCube cube = SyntheticCube(users, 50, 6, 2);
  NormalizedDayBuilder builder(&cube, 0, 30);

  // Serial reference through the environment knob, as a user would pin it.
  setenv("ACOBE_THREADS", "1", 1);
  const ScoreGrid serial = TrainAndScore(builder, users, /*threads=*/0);
  unsetenv("ACOBE_THREADS");
  const ScoreGrid parallel = TrainAndScore(builder, users, /*threads=*/4);

  ASSERT_EQ(serial.aspects(), parallel.aspects());
  ASSERT_EQ(serial.users(), parallel.users());
  ASSERT_EQ(serial.day_begin(), parallel.day_begin());
  ASSERT_EQ(serial.day_end(), parallel.day_end());
  for (int a = 0; a < serial.aspects(); ++a) {
    for (int u = 0; u < serial.users(); ++u) {
      for (int d = serial.day_begin(); d < serial.day_end(); ++d) {
        // Bit-identical, not merely close.
        ASSERT_EQ(serial.At(a, u, d), parallel.At(a, u, d))
            << "aspect " << a << " user " << u << " day " << d;
      }
    }
  }

  // And the critic's investigation list (the user-facing artifact).
  const auto serial_list = RankUsers(serial, 2);
  const auto parallel_list = RankUsers(parallel, 2);
  ASSERT_EQ(serial_list.size(), parallel_list.size());
  for (std::size_t i = 0; i < serial_list.size(); ++i) {
    EXPECT_EQ(serial_list[i].user_idx, parallel_list[i].user_idx);
    EXPECT_EQ(serial_list[i].priority, parallel_list[i].priority);
  }
}

}  // namespace
