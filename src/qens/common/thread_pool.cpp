#include "qens/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

namespace qens::common {
namespace {

/// One participant's contiguous claim range, packed begin<<32|end so a
/// single CAS moves either edge: the owner advances `begin` (front), thieves
/// retreat `end` (back). begin only ever grows and end only ever shrinks, so
/// there is no ABA and `begin >= end` means drained.
constexpr uint64_t PackRange(uint64_t begin, uint64_t end) {
  return (begin << 32) | end;
}
constexpr uint64_t RangeBegin(uint64_t pack) { return pack >> 32; }
constexpr uint64_t RangeEnd(uint64_t pack) { return pack & 0xffffffffull; }

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  sleepers_ = std::make_unique<Sleeper[]>(n);
  idle_.reserve(n);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  for (size_t i = 0; i < workers_.size(); ++i) sleepers_[i].cv.notify_one();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  Sleeper* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (!idle_.empty()) {
      wake = &sleepers_[idle_.back()];
      idle_.pop_back();
      wake->woken = true;
    }
  }
  // With no idle worker, a busy one takes the task when it next looks.
  if (wake != nullptr) wake->cv.notify_one();
}

void ThreadPool::WorkerLoop(size_t self) {
  Sleeper& me = sleepers_[self];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (queue_.empty() && !stop_) {
        me.woken = false;
        idle_.push_back(self);
        me.cv.wait(lock, [&]() { return me.woken || stop_; });
      }
      // Drain remaining tasks even when stopping, so futures handed out
      // before destruction always become ready.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelChunks(
    size_t n, size_t chunk_rows,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  chunk_rows = std::max<size_t>(1, chunk_rows);
  std::vector<std::future<void>> futures;
  futures.reserve((n + chunk_rows - 1) / chunk_rows);
  size_t chunk = 0;
  for (size_t begin = 0; begin < n; begin += chunk_rows, ++chunk) {
    const size_t end = std::min(begin + chunk_rows, n);
    const size_t c = chunk;
    futures.push_back(Submit([&fn, c, begin, end]() { fn(c, begin, end); }));
  }
  for (std::future<void>& future : futures) future.get();
}

void ThreadPool::ParallelUnits(size_t num_units,
                               const std::function<void(size_t)>& fn,
                               const ElasticOptions& options) {
  if (num_units == 0) return;
  assert(num_units < (1ull << 32) && "unit index must fit the packed range");
  if (num_units == 1) {
    fn(0);
    return;
  }
  // Participants: the calling thread plus up to num_units - 1 pool
  // workers. The initial partition is the same count-independent ascending
  // layout as a fixed grid; elasticity comes purely from how the ranges
  // drain.
  //
  // All scheduling state is heap-shared with the participant tasks. The
  // caller returns as soon as every unit has FINISHED (completed ==
  // num_units) — which can be long before a participant task queued behind
  // unrelated pool work ever starts. Such a straggler later finds the
  // ranges drained and exits touching only this shared block, so the call
  // neither blocks on a busy pool nor deadlocks when issued from inside a
  // pool task.
  struct State {
    explicit State(size_t participants) : ranges(participants) {}
    std::vector<std::atomic<uint64_t>> ranges;
    std::function<void(size_t)> fn;
    std::atomic<uint64_t> completed{0};
    size_t divisor = 4;
    size_t min_chunk = 1;
    size_t max_chunk = 0;
    size_t participants = 1;
  };
  const size_t participants = std::min(workers_.size() + 1, num_units);
  auto state = std::make_shared<State>(participants);
  state->fn = fn;
  state->divisor = std::max<size_t>(1, options.divisor);
  state->min_chunk = std::max<size_t>(1, options.min_chunk);
  state->max_chunk = options.max_chunk;
  state->participants = participants;
  {
    const size_t base = num_units / participants;
    const size_t rem = num_units % participants;
    size_t start = 0;
    for (size_t p = 0; p < participants; ++p) {
      const size_t len = base + (p < rem ? 1 : 0);
      state->ranges[p].store(PackRange(start, start + len),
                             std::memory_order_relaxed);
      start += len;
    }
  }

  auto run_participant = [](State& s, size_t self) {
    for (;;) {
      // Drain our own range from the front with guided (size-adaptive)
      // chunks: large grabs while much remains, shrinking toward
      // `min_chunk` so the tail rebalances across thieves.
      uint64_t cur = s.ranges[self].load(std::memory_order_acquire);
      while (RangeBegin(cur) < RangeEnd(cur)) {
        const uint64_t begin = RangeBegin(cur);
        const uint64_t remaining = RangeEnd(cur) - begin;
        uint64_t take = remaining / s.divisor;
        take = std::max<uint64_t>(take, s.min_chunk);
        if (s.max_chunk != 0) take = std::min<uint64_t>(take, s.max_chunk);
        take = std::min(take, remaining);
        if (s.ranges[self].compare_exchange_weak(
                cur, PackRange(begin + take, RangeEnd(cur)),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          for (uint64_t u = begin; u < begin + take; ++u) {
            s.fn(static_cast<size_t>(u));
          }
          s.completed.fetch_add(take, std::memory_order_release);
          cur = s.ranges[self].load(std::memory_order_acquire);
        }
      }
      // Own range drained: steal roughly half of the fullest remaining
      // range, from the back so we never contend with its owner's front
      // edge unless it is nearly empty. A full scan that finds every range
      // empty is a safe exit — no work is ever added after launch.
      size_t victim = s.participants;
      uint64_t victim_remaining = 0;
      for (size_t p = 0; p < s.participants; ++p) {
        if (p == self) continue;
        const uint64_t pack = s.ranges[p].load(std::memory_order_acquire);
        const uint64_t remaining =
            RangeBegin(pack) < RangeEnd(pack)
                ? RangeEnd(pack) - RangeBegin(pack)
                : 0;
        if (remaining > victim_remaining) {
          victim_remaining = remaining;
          victim = p;
        }
      }
      if (victim == s.participants) return;  // Everything drained.
      uint64_t pack = s.ranges[victim].load(std::memory_order_acquire);
      while (RangeBegin(pack) < RangeEnd(pack)) {
        const uint64_t end = RangeEnd(pack);
        const uint64_t remaining = end - RangeBegin(pack);
        const uint64_t take = (remaining + 1) / 2;
        if (s.ranges[victim].compare_exchange_weak(
                pack, PackRange(RangeBegin(pack), end - take),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          for (uint64_t u = end - take; u < end; ++u) {
            s.fn(static_cast<size_t>(u));
          }
          s.completed.fetch_add(take, std::memory_order_release);
          break;
        }
      }
      // Re-enter the outer loop: the steal may have raced away, or more
      // ranges may still hold work.
    }
  };

  // Every participant but the last is a pool task; the caller runs the
  // last inline, so progress is guaranteed even when the pool's workers
  // are busy with unrelated queued work.
  for (size_t p = 0; p + 1 < participants; ++p) {
    Submit([state, run_participant, p]() { run_participant(*state, p); });
  }
  run_participant(*state, participants - 1);
  // The caller's participant only returns once every range is drained, so
  // this wait covers just the in-flight chunks other participants claimed
  // but have not finished. The release increments above pair with this
  // acquire: every write `fn` made is visible once the count closes.
  while (state->completed.load(std::memory_order_acquire) < num_units) {
    std::this_thread::yield();
  }
}

void ThreadPool::ParallelChunksElastic(
    size_t n, size_t chunk_rows,
    const std::function<void(size_t, size_t, size_t)>& fn,
    const ElasticOptions& options) {
  if (n == 0) return;
  chunk_rows = std::max<size_t>(1, chunk_rows);
  const size_t num_chunks = (n + chunk_rows - 1) / chunk_rows;
  ParallelUnits(
      num_chunks,
      [&fn, n, chunk_rows](size_t chunk) {
        const size_t begin = chunk * chunk_rows;
        const size_t end = std::min(begin + chunk_rows, n);
        fn(chunk, begin, end);
      },
      options);
}

size_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace qens::common
