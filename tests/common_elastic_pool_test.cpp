// Work-stealing scheduling on ThreadPool: every unit runs exactly once
// under any steal schedule, outputs collected in per-unit slots are
// bit-identical to a sequential loop at every worker count, ParallelChunks
// keeps its count-independent chunk grid so ascending-chunk reductions are
// bit-identical to sequential, at most num_threads() + 1 units run at once,
// busy pools still finish, and the caller sleeps through a long tail
// instead of spinning. The steal-heavy stress case doubles as the TSan
// target for the claim/steal atomics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <utility>
#include <thread>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/thread_pool.h"

namespace qens::common {
namespace {

/// The worker counts the determinism contract is pinned at (0 clamps to 1
/// inside ThreadPool; the caller participates on top of the pool workers).
const size_t kWorkerCounts[] = {0, 2, 4, 8};

/// Holds every worker of a pool inside a blocking ParallelUnits call, made
/// from a helper thread, until Release(): the pool has no free worker and
/// no queued task while it is held.
class PoolOccupier {
 public:
  explicit PoolOccupier(ThreadPool& pool)
      : helper_([this, &pool] {
          pool.ParallelUnits(pool.num_threads() + 1, [this](size_t) {
            entered_.fetch_add(1);
            while (!release_.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          });
        }) {
    // Every participant blocks in the first unit of its own one-unit range,
    // so none can steal: all workers plus the helper end up held.
    while (entered_.load() < pool.num_threads() + 1) {
      std::this_thread::yield();
    }
  }
  ~PoolOccupier() { Release(); }

  void Release() {
    release_.store(true);
    if (helper_.joinable()) helper_.join();
  }

 private:
  std::atomic<size_t> entered_{0};
  std::atomic<bool> release_{false};
  std::thread helper_;  ///< Declared last: starts once the flags exist.
};

/// CPU time the calling thread has used, in seconds.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(ElasticPoolTest, EveryUnitRunsExactlyOnce) {
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    for (const size_t units : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                               size_t{1000}}) {
      std::vector<std::atomic<uint32_t>> hits(units);
      pool.ParallelUnits(units, [&](size_t u) { ++hits[u]; });
      for (size_t u = 0; u < units; ++u) {
        ASSERT_EQ(hits[u].load(), 1u)
            << "workers " << workers << " units " << units << " unit " << u;
      }
    }
  }
}

TEST(ElasticPoolTest, SlotOutputsBitIdenticalToSequentialUnderStealing) {
  // Per-unit randomness keyed by the unit coordinate, written to per-unit
  // slots: the collected vector must match a plain sequential loop bit for
  // bit at every worker count. Skewed unit durations force the fast ranges
  // to drain and steal from the slow one.
  const size_t kUnits = 800;
  const SplitRng root(42);
  auto unit_value = [&](size_t u) {
    Rng rng = root.Split(u).ToRng();
    double acc = 0.0;
    for (int i = 0; i < 8; ++i) acc += rng.Uniform(-1.0, 1.0);
    return acc;
  };

  std::vector<double> expected(kUnits);
  for (size_t u = 0; u < kUnits; ++u) expected[u] = unit_value(u);

  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    std::vector<double> got(kUnits, 0.0);
    pool.ParallelUnits(kUnits, [&](size_t u) {
      // Head units are stragglers: whoever owns the front range falls
      // behind and the tail of its range must be stolen.
      if (u < 8) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      got[u] = unit_value(u);
    });
    ASSERT_EQ(got, expected) << "workers " << workers;
  }
}

TEST(ElasticPoolTest, ParallelChunksKeepsTheCountIndependentGrid) {
  // Chunk boundaries depend only on (n, chunk_rows), never on the worker
  // count or on which participant claims a chunk, so per-chunk partials
  // reduced in ascending chunk index are bit-identical to sequential.
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    for (const auto& [n, rows] :
         {std::pair<size_t, size_t>{100, 7}, {64, 64}, {65, 64}, {1, 3},
          {0, 5}, {1000, 1}}) {
      const size_t chunks = (n + rows - 1) / rows;
      std::vector<std::pair<size_t, size_t>> expected(chunks);
      for (size_t c = 0; c < chunks; ++c) {
        expected[c] = {c * rows, std::min(n, (c + 1) * rows)};
      }
      std::vector<std::pair<size_t, size_t>> got(chunks, {0, 0});
      pool.ParallelChunks(n, rows, [&](size_t c, size_t b, size_t e) {
        got[c] = {b, e};
      });
      ASSERT_EQ(got, expected) << "workers " << workers << " n " << n
                               << " rows " << rows;
    }
  }
}

TEST(ElasticPoolTest, AscendingChunkReductionBitIdenticalToSequential) {
  // The k-means pattern: per-chunk partial sums reduced in ascending chunk
  // order. ParallelChunks and sequential must agree bit for bit.
  const size_t n = 4321;
  const size_t rows = 128;
  const size_t chunks = (n + rows - 1) / rows;
  const SplitRng root(7);
  auto row_value = [&](size_t i) {
    // An irrational-ish spread where reassociation would show.
    return static_cast<double>(root.Draw(i) >> 11) * 0x1.0p-53 * 3.7 - 1.85;
  };

  auto reduce = [&](auto&& run) {
    std::vector<double> partials(chunks, 0.0);
    run([&](size_t c, size_t b, size_t e) {
      double acc = 0.0;
      for (size_t i = b; i < e; ++i) acc += row_value(i);
      partials[c] = acc;
    });
    double total = 0.0;
    for (const double p : partials) total += p;  // Ascending chunk order.
    return total;
  };

  const double sequential = reduce([&](auto&& fn) {
    for (size_t c = 0; c * rows < n; ++c) {
      fn(c, c * rows, std::min(n, (c + 1) * rows));
    }
  });
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const double parallel = reduce([&](auto&& fn) {
      pool.ParallelChunks(n, rows, fn);
    });
    ASSERT_EQ(std::bit_cast<uint64_t>(sequential),
              std::bit_cast<uint64_t>(parallel))
        << "workers " << workers;
  }
}

TEST(ElasticPoolTest, StealHeavyStress) {
  // Many tiny units behind heavy stragglers, repeated: exercises the
  // claim/steal CAS paths hard. This test is the TSan target for the
  // scheduler (CI runs it under -fsanitize=thread). Eight workers plus the
  // caller split 18000 units into nine ranges of 2000; a straggler opens
  // every other range, so its owner sleeps in its first claim while the
  // others drain their own ranges and steal the rest of it.
  ThreadPool pool(8);
  const size_t kParticipants = pool.num_threads() + 1;
  const size_t kRange = 2000;
  for (int round = 0; round < 5; ++round) {
    const size_t units = kParticipants * kRange;
    std::vector<std::atomic<uint32_t>> hits(units);
    std::atomic<uint64_t> checksum{0};
    pool.ParallelUnits(units, [&](size_t u) {
      ++hits[u];
      if (u % (2 * kRange) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      checksum.fetch_add(
          SplitRng(static_cast<uint64_t>(round)).Split(u).Draw(0),
          std::memory_order_relaxed);
    });
    uint64_t expected_checksum = 0;
    for (size_t u = 0; u < units; ++u) {
      ASSERT_EQ(hits[u].load(), 1u) << "round " << round << " unit " << u;
      expected_checksum +=
          SplitRng(static_cast<uint64_t>(round)).Split(u).Draw(0);
    }
    ASSERT_EQ(checksum.load(), expected_checksum) << "round " << round;
  }
}

TEST(ElasticPoolTest, AtMostWorkersPlusCallerRunAtOnce) {
  // The caller and num_threads() workers are the only participants, so a
  // gauge of units in flight never exceeds num_threads() + 1.
  for (const size_t workers : {size_t{1}, size_t{3}}) {
    ThreadPool pool(workers);
    std::atomic<size_t> in_flight{0};
    std::atomic<size_t> peak{0};
    pool.ParallelUnits(64, [&](size_t) {
      const size_t now = in_flight.fetch_add(1) + 1;
      size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), pool.num_threads() + 1) << "workers " << workers;
    EXPECT_GE(peak.load(), 1u);
  }
}

TEST(ElasticPoolTest, CallerSleepsThroughALongTail) {
  // The worker holds unit 0 for ~100 ms after the caller has run out of
  // work: the caller must block rather than spin, so its own CPU time
  // stays far below the wall time it waited. The caller's unit 1 returns
  // only once the worker has claimed unit 0, so the caller cannot steal it.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  const double cpu_before = ThreadCpuSeconds();
  const auto wall_before = std::chrono::steady_clock::now();
  pool.ParallelUnits(2, [&](size_t) {
    if (std::this_thread::get_id() == caller) {
      while (!worker_started.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } else {
      worker_started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  const double cpu = ThreadCpuSeconds() - cpu_before;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_before)
                          .count();
  EXPECT_GE(wall, 0.09);
  EXPECT_LT(cpu, 0.25 * wall)
      << "caller burned " << cpu << " s of CPU waiting " << wall << " s";
}

TEST(ElasticPoolTest, CallerParticipatesSoBusyPoolsStillFinish) {
  // Every pool worker held by another caller's ParallelUnits: this call
  // must still complete via caller participation (it cannot deadlock
  // waiting for a free worker).
  ThreadPool pool(2);
  PoolOccupier occupier(pool);

  std::vector<std::atomic<uint32_t>> hits(100);
  pool.ParallelUnits(100, [&](size_t u) { ++hits[u]; });
  for (size_t u = 0; u < 100; ++u) ASSERT_EQ(hits[u].load(), 1u);
}

TEST(ElasticPoolTest, SmallCallsWakeOnlyTheWorkersTheyCanUse) {
  // A pool grown to three workers, then a two-unit call: the caller plus
  // one worker participate, so exactly one participant task is queued
  // (with every worker held, nothing drains the queue meanwhile).
  ThreadPool pool(3);
  PoolOccupier occupier(pool);
  ASSERT_EQ(pool.pending_tasks(), 0u);

  std::vector<std::atomic<uint32_t>> hits(8);
  for (const size_t units : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    const size_t before = pool.pending_tasks();
    pool.ParallelUnits(units, [&](size_t u) { ++hits[u]; });
    EXPECT_EQ(pool.pending_tasks() - before,
              std::min(units - 1, pool.num_threads()))
        << units << " units";
  }
  EXPECT_EQ(hits[0].load(), 4u);
  EXPECT_EQ(hits[1].load(), 3u);
  EXPECT_EQ(hits[2].load(), 2u);
  for (size_t u = 3; u < hits.size(); ++u) EXPECT_EQ(hits[u].load(), 1u);
}

TEST(ElasticPoolTest, DestructorDrainsQueuedStragglers) {
  // Calls made while the only worker is held finish on their callers and
  // leave participant tasks queued behind it. Destroying the pool must run
  // or release every one of them: each task shares a copy of its call's
  // `fn`, so the token below is unshared again only once all are gone.
  auto token = std::make_shared<int>(0);
  {
    ThreadPool pool(1);
    PoolOccupier occupier(pool);
    for (int call = 0; call < 32; ++call) {
      pool.ParallelUnits(4, [token](size_t) { ++*token; });
    }
    EXPECT_EQ(pool.pending_tasks(), 32u);
    EXPECT_GT(token.use_count(), 1);
    occupier.Release();
  }  // Destructor drains the queue before joining.
  EXPECT_EQ(*token, 32 * 4);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace qens::common
