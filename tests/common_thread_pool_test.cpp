// Tests for the shared worker pool: the worker count is clamped, chunk
// grids cover the input exactly once with worker-count-independent
// boundaries, and one pool serves many calls. Scheduling under stealing,
// busy pools and destruction is covered by common_elastic_pool_test.

#include "qens/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

namespace qens::common {
namespace {

TEST(ThreadPoolTest, WorkerCountClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.num_threads(), 4u);
}

TEST(ThreadPoolTest, ParallelChunksCoversEveryIndexOnce) {
  ThreadPool pool(3);
  const size_t n = 10000;
  const size_t chunk_rows = 256;
  std::vector<int> hits(n, 0);
  pool.ParallelChunks(n, chunk_rows, [&](size_t chunk, size_t begin,
                                         size_t end) {
    // Boundaries must come from the fixed grid, never the worker count.
    EXPECT_EQ(begin, chunk * chunk_rows);
    EXPECT_EQ(end, std::min(begin + chunk_rows, n));
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelChunksHandlesShortAndEmptyInputs) {
  ThreadPool pool(4);
  // n smaller than one chunk: exactly one call covering [0, n).
  size_t calls = 0;
  pool.ParallelChunks(5, 2048, [&](size_t chunk, size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1u);
  // n == 0: no calls at all.
  pool.ParallelChunks(0, 16, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, ReusableAcrossBatchesOfWork) {
  ThreadPool pool(2);
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<int> slots(10, -1);
    pool.ParallelUnits(slots.size(), [&slots, batch](size_t i) {
      slots[i] = batch * 100 + static_cast<int>(i);
    });
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace qens::common
