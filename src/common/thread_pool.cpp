#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace exadigit {

void parallel_for_dynamic(int width, std::size_t n, const std::function<void(std::size_t)>& fn) {
  require(width >= 1, "parallel_for_dynamic width must be >= 1");
  if (width == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A lane beyond the shard count would find nothing to take.
  const std::size_t lanes = std::min(static_cast<std::size_t>(width), n);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(lanes);
  const auto run_lane = [&](std::size_t lane) {
    try {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    try {
      workers.emplace_back(run_lane, lane);
    } catch (const std::system_error&) {
      // No thread to be had: the lanes already running take this share.
      break;
    }
  }
  run_lane(0);
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
}

}  // namespace exadigit
