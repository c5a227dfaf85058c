// A small fixed-size worker pool for trace-level parallelism.
//
// The paper's datasets are sets of independently captured per-subnet
// traces, so the analysis pipeline shards naturally: one job per trace,
// private per-shard state, deterministic fold on the caller's thread.
// ThreadPool is the scheduling half of that pattern.
//
// Sizing: an explicit count, or env_thread_count() which honours the
// ENTRACE_THREADS environment variable and falls back to
// hardware_concurrency.  A pool of 0 or 1 threads spawns no workers at
// all and runs every task inline on the submitting thread — the serial
// path and the parallel path are the same code, which is what makes the
// ENTRACE_THREADS=1 vs =N determinism guarantee testable.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace entrace {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads that execute tasks (1 in inline mode).
  std::size_t thread_count() const { return workers_.empty() ? 1 : workers_.size(); }

  // Scheduling telemetry, updated under the pool mutex (uncontended in
  // inline mode).  Plain data — the analyzer copies it into its `pool.*`
  // timing metrics, keeping util free of any obs dependency.
  struct Stats {
    std::uint64_t tasks = 0;          // tasks completed
    std::size_t max_queue_depth = 0;  // high-water mark of queued tasks
    double busy_seconds = 0.0;        // summed task execution wall-clock
    double max_task_seconds = 0.0;    // slowest single task
  };
  Stats stats() const;

  // Schedule fn and return a future for its result.  Exceptions thrown by
  // fn surface from future::get().  In inline mode the task runs before
  // submit() returns.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(fn)]() mutable -> R {
          const TaskTimer timer(*this);
          return fn();
        });
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    }
    cv_.notify_one();
    return future;
  }

  // Run fn(0) .. fn(n-1) across the pool and wait for all of them (in inline
  // mode: in index order on the calling thread, with no future).  If any
  // invocation throws, every task still runs to completion and then the
  // exception from the lowest index is rethrown (deterministic regardless
  // of scheduling).
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  // ENTRACE_THREADS if set to a positive integer, else
  // std::thread::hardware_concurrency (at least 1).
  static std::size_t env_thread_count();

 private:
  // Counts one task into stats_ as it leaves scope, inside the task so
  // that a task (even one that throws) is counted before its future is
  // ready: whoever waited on the future then sees it in stats().
  class TaskTimer {
   public:
    explicit TaskTimer(ThreadPool& pool) : pool_(pool) {}
    ~TaskTimer() {
      pool_.record_task(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
    }

   private:
    ThreadPool& pool_;
    const std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  };

  void worker_loop();
  void record_task(double seconds);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace entrace
