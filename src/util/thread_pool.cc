#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace hoiho::util {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  shards_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) shards_.push_back(std::make_unique<Shard>());
  heartbeats_ = std::vector<Heartbeat>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i](std::stop_token stop) { worker(stop, i); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard lock(idle_mu_);
    stopping_ = true;
  }
  for (std::jthread& w : workers_) w.request_stop();
  cv_work_.notify_all();
  cv_room_.notify_all();
  // jthread destructors join; workers drain every deque before exiting.
}

void WorkStealingPool::seed(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const std::uint64_t now = steady_now_ns();
  const std::size_t n_workers = shards_.size();
  in_flight_.fetch_add(tasks.size(), std::memory_order_relaxed);
  queued_.fetch_add(tasks.size(), std::memory_order_release);
  submitted_.fetch_add(tasks.size(), std::memory_order_relaxed);
  // One pass per worker: collect its round-robin share, push under one lock.
  for (std::size_t w = 0; w < n_workers; ++w) {
    Shard& shard = *shards_[w];
    const std::lock_guard lock(shard.mu);
    for (std::size_t i = w; i < tasks.size(); i += n_workers)
      shard.deque.push_back(Task{std::move(tasks[i]), now});
    shard.stats.max_queue_depth = std::max(shard.stats.max_queue_depth, shard.deque.size());
  }
  {
    // Fence against a sleeper that checked queued_ but hasn't blocked yet.
    const std::lock_guard lock(idle_mu_);
  }
  cv_work_.notify_all();
}

void WorkStealingPool::submit(std::function<void()> task) {
  {
    // Placement, the cap check and the queued_ bump share idle_mu_, so
    // concurrent submitters cannot overshoot kMaxQueued and a sleeper cannot
    // miss the bump (it re-checks queued_ under this lock before waiting).
    std::unique_lock lock(idle_mu_);
    cv_room_.wait(lock, [this] {
      return stopping_ || queued_.load(std::memory_order_acquire) < kMaxQueued;
    });
    if (stopping_) return;  // shutting down: drop the task
    Shard& shard = *shards_[next_shard_];
    next_shard_ = (next_shard_ + 1) % shards_.size();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1, std::memory_order_release);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard shard_lock(shard.mu);
    shard.deque.push_back(Task{std::move(task), steady_now_ns()});
    shard.stats.max_queue_depth = std::max(shard.stats.max_queue_depth, shard.deque.size());
  }
  // One task, one wakeup: if its owner is busy, the woken worker steals it.
  cv_work_.notify_one();
}

void WorkStealingPool::wait_idle() {
  std::unique_lock lock(idle_mu_);
  cv_idle_.wait(lock, [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

bool WorkStealingPool::wait_idle_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(idle_mu_);
  return cv_idle_.wait_for(lock, timeout,
                           [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

// The scanner reads busy_since first, then task_seq: if the worker finishes
// and starts a new task in between, the worst case is one stall attributed
// to the newer seq — an off-by-one in attribution, never a double count.
std::size_t WorkStealingPool::scan_stalled(std::uint64_t threshold_ms) {
  if (stall_reported_.size() != heartbeats_.size()) stall_reported_.assign(heartbeats_.size(), 0);
  const std::uint64_t now = steady_now_ns();
  const std::uint64_t threshold_ns = threshold_ms * 1'000'000ULL;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < heartbeats_.size(); ++i) {
    const std::uint64_t busy = heartbeats_[i].busy_since_ns.load(std::memory_order_acquire);
    if (busy == 0 || now - busy < threshold_ns) continue;
    const std::uint64_t seq = heartbeats_[i].task_seq.load(std::memory_order_acquire);
    if (seq == stall_reported_[i]) continue;  // this episode already counted
    stall_reported_[i] = seq;
    ++fresh;
  }
  return fresh;
}

std::size_t WorkStealingPool::resolve(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_acquire);
  s.workers.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mu);
    s.workers.push_back(shard->stats);
  }
  for (const WorkerStats& w : s.workers) {
    s.executed += w.executed;
    s.tasks_stolen += w.stolen;
    s.steal_failures += w.steal_failures;
    s.max_queue_depth = std::max(s.max_queue_depth, w.max_queue_depth);
  }
  return s;
}

bool WorkStealingPool::take(Shard& shard, bool front, Task& out) {
  {
    const std::lock_guard lock(shard.mu);
    if (shard.deque.empty()) return false;
    if (front) {
      out = std::move(shard.deque.front());
      shard.deque.pop_front();
    } else {
      out = std::move(shard.deque.back());
      shard.deque.pop_back();
    }
    // queued_ falls one take at a time, so exactly one take crosses the cap.
    if (queued_.fetch_sub(1, std::memory_order_acq_rel) != kMaxQueued) return true;
  }
  // Notify under idle_mu_ so the wakeup cannot slip between a blocked
  // submitter's check and its wait.
  const std::lock_guard lock(idle_mu_);
  cv_room_.notify_all();
  return true;
}

bool WorkStealingPool::try_pop_own(std::size_t index, Task& out) {
  return take(*shards_[index], /*front=*/true, out);  // own deque: biggest-first
}

bool WorkStealingPool::try_steal(std::size_t thief, Task& out) {
  const std::size_t n = shards_.size();
  for (std::size_t k = 1; k < n; ++k)  // victim's back: smallest remaining
    if (take(*shards_[(thief + k) % n], /*front=*/false, out)) return true;
  {
    Shard& own = *shards_[thief];
    const std::lock_guard lock(own.mu);
    ++own.stats.steal_failures;
  }
  return false;
}

void WorkStealingPool::run_task(std::size_t index, Task& task) {
  if (queue_wait_ns_)
    queue_wait_ns_.observe(static_cast<double>(steady_now_ns() - task.enqueue_ns));
  Heartbeat& hb = heartbeats_[index];
  hb.task_seq.fetch_add(1, std::memory_order_relaxed);
  hb.busy_since_ns.store(steady_now_ns(), std::memory_order_release);
  task.fn();
  hb.busy_since_ns.store(0, std::memory_order_release);
  {
    Shard& own = *shards_[index];
    const std::lock_guard lock(own.mu);
    ++own.stats.executed;
  }
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task out: wake wait_idle(). Take the lock so the notify cannot
    // slip between the waiter's predicate check and its wait.
    const std::lock_guard lock(idle_mu_);
    cv_idle_.notify_all();
  }
}

void WorkStealingPool::worker(std::stop_token stop, std::size_t index) {
  for (;;) {
    Task task;
    if (try_pop_own(index, task)) {
      run_task(index, task);
      continue;
    }
    // Only scan victims while tasks are believed *queued* — in_flight_ would
    // also count currently-executing tasks, and gating on it makes every
    // waiting worker busy-spin (and rack up steal failures) for as long as
    // any long task runs anywhere in the pool.
    if (queued_.load(std::memory_order_acquire) > 0 && try_steal(index, task)) {
      {
        Shard& own = *shards_[index];
        const std::lock_guard lock(own.mu);
        ++own.stats.stolen;
      }
      run_task(index, task);
      continue;
    }
    // Every deque looked empty: sleep until new work is seeded or we stop.
    std::unique_lock lock(idle_mu_);
    if (stopping_ || stop.stop_requested()) {
      // Drain check: another thread may have seeded between our scan and
      // the lock; only exit once the scan-and-stop state is consistent.
      lock.unlock();
      if (!try_pop_own(index, task) && !try_steal(index, task)) return;
      run_task(index, task);
      continue;
    }
    // No timeout: every queued_ bump is fenced by idle_mu_ and followed by a
    // notify, so an idle server's workers sleep until work arrives.
    cv_work_.wait(lock, [&] {
      return stopping_ || stop.stop_requested() ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

}  // namespace hoiho::util
