#pragma once

/// @file thread_pool.hpp
/// A persistent worker pool for running independent jobs side by side.
///
/// A single twin runs serially; the parallelism that pays is across runs
/// (ScenarioRunner batches). `parallel_for_dynamic(n, fn)` runs fn(0..n-1)
/// with shards handed out through an atomic cursor, so which lane runs a
/// shard depends on timing. Shards must therefore be fully independent and
/// slot-addressed: each writes only its own output slot, and the results
/// are then deterministic however the shards were scheduled.
///
/// Exceptions thrown inside fn are captured per lane; after the barrier the
/// one from the lowest lane is rethrown on the calling thread (lane 0 is
/// the caller). A lane stops taking shards after its first failure. Because
/// shards are handed out dynamically, which failing shard gets reported
/// depends on timing.
///
/// A pool of width 1 runs fn as a plain serial loop on the caller, with
/// zero synchronization.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace exadigit {

/// Persistent worker pool; see the file header for the contract.
class ThreadPool {
 public:
  /// Creates a pool of total width `width` >= 1 (the calling thread counts
  /// as lane 0, so `width - 1` workers are spawned).
  explicit ThreadPool(int width);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total number of lanes, including the calling thread.
  [[nodiscard]] int width() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for i in [0, n), shards handed out by an atomic cursor.
  /// Blocks until every lane finished; must not be called re-entrantly
  /// from inside fn.
  void parallel_for_dynamic(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
  };

  void worker_loop(int lane);
  /// Lane body: takes shards of the current job until none are left.
  void run_lane(int lane);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals a new epoch to workers
  std::condition_variable done_cv_;   ///< signals lane completion to the caller
  Job job_;
  std::uint64_t epoch_ = 0;           ///< bumped per job; workers run once per epoch
  int lanes_remaining_ = 0;
  bool stopping_ = false;
  std::atomic<std::size_t> cursor_{0};  ///< next shard to hand out
  std::vector<std::exception_ptr> lane_errors_;
};

}  // namespace exadigit
