#include "util/thread_pool.h"

#include <cstdlib>
#include <exception>

namespace entrace {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task: exceptions are captured into the future
  }
}

void ThreadPool::record_task(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tasks;
  stats_.busy_seconds += seconds;
  stats_.max_task_seconds = std::max(stats_.max_task_seconds, seconds);
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ThreadPool::for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    // Inline mode: call fn directly, without a packaged_task and a future
    // per index, under the same contract as the queued path.
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        const TaskTimer timer(*this);
        fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Wait for everything first so no task still references fn (or captured
  // state) when we unwind, then rethrow from the lowest failing index.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
}

std::size_t ThreadPool::env_thread_count() {
  if (const char* s = std::getenv("ENTRACE_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end != s && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace entrace
