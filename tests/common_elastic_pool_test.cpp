// Elastic (work-stealing) scheduling on ThreadPool: every unit runs
// exactly once under any steal schedule, outputs collected in per-unit
// slots are bit-identical to a sequential loop at every worker count, and
// ParallelChunksElastic keeps the exact chunk grid of ParallelChunks so
// ascending-chunk reductions stay bit-identical to the fixed path. The
// steal-heavy stress cases double as the TSan target for the claim/steal
// atomics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
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

TEST(ElasticPoolTest, ChunkOptionsPreserveExactlyOnce) {
  // Degenerate tuning (per-unit claims, huge chunks, aggressive divisor)
  // must never break the exactly-once guarantee.
  ThreadPool pool(4);
  for (const ElasticOptions options :
       {ElasticOptions{/*divisor=*/1, /*min_chunk=*/1, /*max_chunk=*/1},
        ElasticOptions{/*divisor=*/1, /*min_chunk=*/64, /*max_chunk=*/0},
        ElasticOptions{/*divisor=*/16, /*min_chunk=*/1, /*max_chunk=*/3}}) {
    const size_t units = 513;
    std::vector<std::atomic<uint32_t>> hits(units);
    pool.ParallelUnits(units, [&](size_t u) { ++hits[u]; }, options);
    for (size_t u = 0; u < units; ++u) {
      ASSERT_EQ(hits[u].load(), 1u)
          << "divisor " << options.divisor << " min " << options.min_chunk
          << " max " << options.max_chunk << " unit " << u;
    }
  }
}

TEST(ElasticPoolTest, ParallelChunksElasticKeepsTheFixedChunkGrid) {
  // The elastic chunk path must produce the exact chunk decomposition of
  // ParallelChunks — boundaries depend only on (n, chunk_rows) — so that
  // per-chunk partials reduced in ascending chunk index are bit-identical
  // to the fixed-grid path.
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    for (const auto [n, rows] :
         {std::pair<size_t, size_t>{100, 7}, {64, 64}, {65, 64}, {1, 3},
          {0, 5}, {1000, 1}}) {
      const size_t chunks = rows == 0 ? 0 : (n + rows - 1) / rows;
      std::vector<std::pair<size_t, size_t>> fixed(chunks, {0, 0});
      std::vector<std::pair<size_t, size_t>> elastic(chunks, {0, 0});
      pool.ParallelChunks(n, rows, [&](size_t c, size_t b, size_t e) {
        fixed[c] = {b, e};
      });
      pool.ParallelChunksElastic(n, rows, [&](size_t c, size_t b, size_t e) {
        elastic[c] = {b, e};
      });
      ASSERT_EQ(fixed, elastic) << "workers " << workers << " n " << n
                                << " rows " << rows;
    }
  }
}

TEST(ElasticPoolTest, AscendingChunkReductionBitIdenticalAcrossPaths) {
  // The k-means pattern: per-chunk partial sums reduced in ascending chunk
  // order. Fixed grid, elastic, and sequential must agree bit for bit.
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
    const double fixed = reduce([&](auto&& fn) {
      pool.ParallelChunks(n, rows, fn);
    });
    const double elastic = reduce([&](auto&& fn) {
      pool.ParallelChunksElastic(n, rows, fn);
    });
    ASSERT_EQ(std::bit_cast<uint64_t>(sequential),
              std::bit_cast<uint64_t>(fixed))
        << "workers " << workers;
    ASSERT_EQ(std::bit_cast<uint64_t>(sequential),
              std::bit_cast<uint64_t>(elastic))
        << "workers " << workers;
  }
}

TEST(ElasticPoolTest, StealHeavyStress) {
  // Many tiny units behind a few heavy stragglers, repeated: exercises the
  // claim/steal CAS paths hard. This test is the TSan target for the
  // elastic scheduler (CI runs it under -fsanitize=thread).
  ThreadPool pool(8);
  ElasticOptions aggressive;
  aggressive.divisor = 2;
  aggressive.max_chunk = 4;
  for (int round = 0; round < 5; ++round) {
    const size_t units = 20000;
    std::vector<std::atomic<uint32_t>> hits(units);
    std::atomic<uint64_t> checksum{0};
    pool.ParallelUnits(
        units,
        [&](size_t u) {
          ++hits[u];
          if (u % 5000 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          checksum.fetch_add(SplitRng(static_cast<uint64_t>(round))
                                 .Split(u)
                                 .Draw(0),
                             std::memory_order_relaxed);
        },
        aggressive);
    uint64_t expected_checksum = 0;
    for (size_t u = 0; u < units; ++u) {
      ASSERT_EQ(hits[u].load(), 1u) << "round " << round << " unit " << u;
      expected_checksum +=
          SplitRng(static_cast<uint64_t>(round)).Split(u).Draw(0);
    }
    ASSERT_EQ(checksum.load(), expected_checksum) << "round " << round;
  }
}

TEST(ElasticPoolTest, CallerParticipatesSoBusyPoolsStillFinish) {
  // All pool workers blocked on slow Submit tasks: ParallelUnits must
  // still complete via caller participation (it cannot deadlock waiting
  // for a free worker).
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  auto blocker = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto f1 = pool.Submit(blocker);
  auto f2 = pool.Submit(blocker);

  std::vector<std::atomic<uint32_t>> hits(100);
  pool.ParallelUnits(100, [&](size_t u) { ++hits[u]; });
  for (size_t u = 0; u < 100; ++u) ASSERT_EQ(hits[u].load(), 1u);

  release.store(true);
  f1.get();
  f2.get();
}

TEST(ElasticPoolTest, SmallCallsWakeOnlyTheWorkersTheyCanUse) {
  // A pool grown to three workers, then a two-unit call: the caller plus
  // one worker participate, so exactly one participant task is queued
  // (with every worker blocked, nothing drains the queue meanwhile).
  ThreadPool pool(3);
  std::atomic<bool> release{false};
  auto blocker = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::future<void>> blocked;
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    blocked.push_back(pool.Submit(blocker));
  }
  while (pool.pending_tasks() != 0) std::this_thread::yield();

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

  release.store(true);
  for (std::future<void>& f : blocked) f.get();
}

}  // namespace
}  // namespace qens::common
