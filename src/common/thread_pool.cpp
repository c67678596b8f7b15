#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace exadigit {

ThreadPool::ThreadPool(int width) {
  require(width >= 1, "thread pool width must be >= 1");
  lane_errors_.resize(static_cast<std::size_t>(width));
  workers_.reserve(static_cast<std::size_t>(width - 1));
  for (int lane = 1; lane < width; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_lane(int lane) {
  try {
    for (;;) {
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= job_.n) break;
      (*job_.fn)(i);
    }
  } catch (...) {
    lane_errors_[static_cast<std::size_t>(lane)] = std::current_exception();
  }
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
    }
    run_lane(lane);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --lanes_remaining_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for_dynamic(std::size_t n,
                                      const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int w = width();
  if (w == 1 || n == 1) {
    // Degenerate widths take the plain serial loop: no locks, no wakeups.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::fill(lane_errors_.begin(), lane_errors_.end(), nullptr);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = Job{&fn, n};
    cursor_.store(0, std::memory_order_relaxed);
    lanes_remaining_ = w - 1;
    ++epoch_;
  }
  work_cv_.notify_all();
  run_lane(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return lanes_remaining_ == 0; });
    job_ = Job{};
  }
  // Rethrow the lowest lane's failure; lane 0 is the caller.
  for (const std::exception_ptr& err : lane_errors_) {
    if (err != nullptr) std::rethrow_exception(err);
  }
}

}  // namespace exadigit
