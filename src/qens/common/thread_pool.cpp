#include "qens/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
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

/// Guided self-scheduling: an owner claims max(1, remaining / divisor)
/// units from the front of its range per grab, so chunks shrink as the
/// range drains and the tail self-balances.
constexpr uint64_t kClaimDivisor = 4;

/// How long the caller spins (yielding) on the last in-flight units before
/// it blocks. On the paper_qd workload a training round's final wait
/// measured about 120 us at the median, 280 us at p99 and 600-680 us at
/// p99.9, so 1 ms covers all but about 0.03% of them without a futex round
/// trip; a whole query session still costs the caller almost no CPU.
/// Blocking at once (atomic::wait's own short spin) made paper_qd's
/// query_p50_ms 11% slower in paired runs.
constexpr std::chrono::microseconds kSpinBeforeBlock{1000};

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
      // Drain remaining tasks even when stopping, so participant tasks
      // queued before destruction still run and release their shared state.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelUnits(size_t num_units,
                               const std::function<void(size_t)>& fn) {
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
    State(size_t participants, size_t num_units)
        : ranges(participants),
          num_units(static_cast<uint32_t>(num_units)) {}
    std::vector<std::atomic<uint64_t>> ranges;
    std::function<void(size_t)> fn;
    /// 32 bits (num_units < 2^32) so wait/notify map onto a futex directly.
    std::atomic<uint32_t> completed{0};
    uint32_t num_units;

    /// Count `take` finished units; whoever closes the count wakes the
    /// caller if it has stopped spinning. The release pairs with the
    /// caller's acquire: every write `fn` made is visible once the count
    /// closes.
    void Finish(uint64_t take) {
      const auto n = static_cast<uint32_t>(take);
      if (completed.fetch_add(n, std::memory_order_release) + n ==
          num_units) {
        completed.notify_all();
      }
    }
  };
  const size_t participants = std::min(workers_.size() + 1, num_units);
  auto state = std::make_shared<State>(participants, num_units);
  state->fn = fn;
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
    const size_t participants = s.ranges.size();
    for (;;) {
      // Drain our own range from the front with guided (size-adaptive)
      // chunks: large grabs while much remains, shrinking to one unit so
      // the tail rebalances across thieves.
      uint64_t cur = s.ranges[self].load(std::memory_order_acquire);
      while (RangeBegin(cur) < RangeEnd(cur)) {
        const uint64_t begin = RangeBegin(cur);
        const uint64_t remaining = RangeEnd(cur) - begin;
        const uint64_t take =
            std::max<uint64_t>(1, remaining / kClaimDivisor);
        if (s.ranges[self].compare_exchange_weak(
                cur, PackRange(begin + take, RangeEnd(cur)),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          for (uint64_t u = begin; u < begin + take; ++u) {
            s.fn(static_cast<size_t>(u));
          }
          s.Finish(take);
          cur = s.ranges[self].load(std::memory_order_acquire);
        }
      }
      // Own range drained: steal roughly half of the fullest remaining
      // range, from the back so we never contend with its owner's front
      // edge unless it is nearly empty. A full scan that finds every range
      // empty is a safe exit — no work is ever added after launch.
      size_t victim = participants;
      uint64_t victim_remaining = 0;
      for (size_t p = 0; p < participants; ++p) {
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
      if (victim == participants) return;  // Everything drained.
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
          s.Finish(take);
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
    Enqueue([state, run_participant, p]() { run_participant(*state, p); });
  }
  run_participant(*state, participants - 1);
  // The caller's participant only returns once every range is drained, so
  // this wait covers just the in-flight chunks other participants claimed
  // but have not finished. Short tails (a training round's last job) are
  // caught by the spin without a futex round trip; a long tail (a whole
  // query session) blocks instead of burning the caller's CPU.
  const auto spin_until = std::chrono::steady_clock::now() + kSpinBeforeBlock;
  for (uint32_t done = state->completed.load(std::memory_order_acquire);
       done < num_units;
       done = state->completed.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < spin_until) {
      std::this_thread::yield();
    } else {
      state->completed.wait(done, std::memory_order_acquire);
    }
  }
}

void ThreadPool::ParallelChunks(
    size_t n, size_t chunk_rows,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  chunk_rows = std::max<size_t>(1, chunk_rows);
  const size_t num_chunks = (n + chunk_rows - 1) / chunk_rows;
  ParallelUnits(num_chunks, [&fn, n, chunk_rows](size_t chunk) {
    const size_t begin = chunk * chunk_rows;
    const size_t end = std::min(begin + chunk_rows, n);
    fn(chunk, begin, end);
  });
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
