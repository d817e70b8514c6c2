#ifndef QENS_COMMON_THREAD_POOL_H_
#define QENS_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// Fixed-size reusable worker pool — the one concurrency primitive under the
/// parallel hot paths (federated local training, the k-means assignment
/// step, bench harnesses).
///
/// Determinism contract: the pool itself never reorders *results*. Submit
/// returns a future per task; callers that collect futures in submission
/// (index) order observe outputs independent of scheduling, so a pool of 1
/// worker, a pool of N workers, and a plain sequential loop all produce the
/// same result sequence. Every parallel call site in qens follows this
/// index-ordered collection rule — see docs/PERFORMANCE.md.
///
/// Compared to per-task std::async spawning (the pre-pool federation path),
/// the pool bounds concurrency at a fixed worker count, reuses threads
/// across rounds, and queues oversubscribed work instead of oversubscribing
/// the machine.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace qens::common {

/// Tuning for the elastic (work-stealing) scheduling path. Elastic execution
/// changes *which thread runs which unit and in what order* — never the
/// decomposition into logical units or the reduction order — so it is only
/// legal for call sites whose per-unit randomness and output slot are keyed
/// by the unit's logical coordinates (see common/split_rng.h and the
/// determinism contract in docs/PERFORMANCE.md).
struct ElasticOptions {
  /// Guided self-scheduling: an owner claims ceil(remaining / divisor)
  /// units from the front of its range per grab, so chunks shrink as the
  /// range drains and the tail self-balances. Must be >= 1.
  size_t divisor = 4;
  /// Lower bound on a claimed chunk (amortizes the atomic op).
  size_t min_chunk = 1;
  /// Upper bound on a claimed chunk; 0 = unbounded.
  size_t max_chunk = 0;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). Workers live until the
  /// pool is destroyed; the destructor drains the queue and joins.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks queued and not yet started by a worker.
  size_t pending_tasks() const;

  /// Enqueue a callable; returns the future of its result. Tasks start in
  /// FIFO order (completion order depends on scheduling — collect futures in
  /// submission order for deterministic output).
  template <typename F>
  std::future<std::invoke_result_t<F&>> Submit(F fn) {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Run `fn(chunk_index, begin, end)` over [0, n) split into contiguous
  /// chunks of `chunk_rows` (the last chunk may be short) and block until
  /// every chunk has finished. Chunk boundaries depend only on n and
  /// chunk_rows — never on the worker count — so any per-chunk partial
  /// results reduced in ascending chunk index are bit-identical across
  /// thread counts.
  void ParallelChunks(size_t n, size_t chunk_rows,
                      const std::function<void(size_t, size_t, size_t)>& fn);

  /// Elastic execution of `num_units` independent logical units: run
  /// `fn(unit)` exactly once for every unit in [0, num_units) and block
  /// until all have finished. Units are claimed dynamically — each
  /// participant owns a contiguous range, grabs size-adaptive chunks from
  /// its front, and steals from the back of the fullest remaining range
  /// when its own is drained — so stragglers no longer serialize a fixed
  /// partition. The caller thread participates, so the call also works on a
  /// pool whose workers are busy (or from within a pool task). The other
  /// participants are min(num_units - 1, num_threads()) pool workers: a
  /// small call on a large pool wakes only the workers it can use.
  ///
  /// Determinism: the pool guarantees each unit runs exactly once, nothing
  /// more. Bit-identical replay additionally requires the call site to (a)
  /// derive any randomness inside `fn` from the unit index via coordinate
  /// keys (SplitRng), never from a shared linear generator, and (b) write
  /// results into per-unit slots reduced in ascending unit order after this
  /// returns. Under those two rules the output is bit-identical to a
  /// sequential loop at every worker count and any steal schedule.
  ///
  /// `fn` must not throw (units run on pool threads with no exception
  /// channel back to the caller). num_units must be < 2^32.
  void ParallelUnits(size_t num_units, const std::function<void(size_t)>& fn,
                     const ElasticOptions& options = {});

  /// Elastic counterpart of ParallelChunks: the *same* chunk grid (chunk
  /// boundaries depend only on n and chunk_rows, so per-chunk partials
  /// reduced in ascending chunk index stay bit-identical to the fixed-grid
  /// path), with chunks claimed dynamically instead of queued up front.
  void ParallelChunksElastic(
      size_t n, size_t chunk_rows,
      const std::function<void(size_t, size_t, size_t)>& fn,
      const ElasticOptions& options = {});

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
