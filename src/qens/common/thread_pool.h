#ifndef QENS_COMMON_THREAD_POOL_H_
#define QENS_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// Fixed-size reusable worker pool — the one concurrency primitive under the
/// parallel hot paths (federated local training, concurrent query sessions,
/// the k-means assignment step, bench harnesses).
///
/// One dispatch: ParallelUnits runs a count of independent logical units on
/// the calling thread plus up to num_threads() workers, claiming units
/// dynamically (work-stealing), and returns once every unit has finished.
/// ParallelChunks is the same dispatch over a fixed row-chunk grid.
///
/// Determinism contract: the pool never reorders *results*. Call sites write
/// each unit's output into its own slot and read or reduce the slots in
/// ascending unit order after the call returns, so a pool of 1 worker, a
/// pool of N workers, and a plain sequential loop all produce the same
/// result sequence under any steal schedule — see docs/PERFORMANCE.md.
///
/// Compared to per-task std::async spawning (the pre-pool federation path),
/// the pool bounds concurrency at a fixed worker count and reuses threads
/// across calls.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qens::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). Workers live until the
  /// pool is destroyed; the destructor drains the queue and joins.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Participant tasks queued and not yet started by a worker.
  size_t pending_tasks() const;

  /// Run `fn(unit)` exactly once for every unit in [0, num_units) and block
  /// until all have finished. Units are claimed dynamically — each
  /// participant owns a contiguous range, grabs size-adaptive chunks from
  /// its front, and steals from the back of the fullest remaining range
  /// when its own is drained — so stragglers never serialize a fixed
  /// partition. The caller thread participates, so the call also works on a
  /// pool whose workers are busy (or from within a pool task). The other
  /// participants are min(num_units - 1, num_threads()) pool workers: a
  /// small call on a large pool wakes only the workers it can use, and at
  /// most num_threads() + 1 units run at once.
  ///
  /// Determinism: the pool guarantees each unit runs exactly once, nothing
  /// more. Bit-identical replay additionally requires the call site to (a)
  /// derive any randomness inside `fn` from the unit index (a pure function
  /// of the unit's coordinates), never from a shared linear generator, and
  /// (b) write results into per-unit slots read in ascending unit order
  /// after this returns. Under those two rules the output is bit-identical
  /// to a sequential loop at every worker count and any steal schedule.
  ///
  /// `fn` must not throw (units run on pool threads with no exception
  /// channel back to the caller). num_units must be < 2^32.
  void ParallelUnits(size_t num_units, const std::function<void(size_t)>& fn);

  /// ParallelUnits over a chunk grid: run `fn(chunk_index, begin, end)`
  /// over [0, n) split into contiguous chunks of `chunk_rows` (the last
  /// chunk may be short). Chunk boundaries depend only on n and chunk_rows —
  /// never on the worker count — so per-chunk partial results reduced in
  /// ascending chunk index are bit-identical across thread counts.
  void ParallelChunks(size_t n, size_t chunk_rows,
                      const std::function<void(size_t, size_t, size_t)>& fn);

  /// Worker count to use when the caller passes 0: the hardware thread
  /// count, falling back to 1 when unknown.
  static size_t DefaultThreadCount();

 private:
  /// A worker's private wake-up signal.
  struct Sleeper {
    std::condition_variable cv;
    bool woken = false;  ///< Set (under mu_) by the Enqueue that wakes it.
  };

  /// Queue `task` and wake the most recently idled worker, if any is idle.
  void Enqueue(std::function<void()> task);
  void WorkerLoop(size_t self);

  mutable std::mutex mu_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  /// Sleeping workers, most recently idled last. Waking the last one keeps
  /// a pool larger than its calls on the same few recently-run workers
  /// instead of rotating through long sleepers, whose wake-up is slower.
  std::vector<size_t> idle_;
  std::unique_ptr<Sleeper[]> sleepers_;  ///< One per worker.
  std::vector<std::thread> workers_;
};

}  // namespace qens::common

#endif  // QENS_COMMON_THREAD_POOL_H_
