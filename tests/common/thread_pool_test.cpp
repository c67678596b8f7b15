/// Unit tests for the worker pool (common/thread_pool.hpp): full shard
/// coverage under dynamic hand-out, exception propagation, degenerate
/// widths, and reuse across many epochs.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace exadigit {
namespace {

TEST(ThreadPoolTest, Width1RunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.width(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> lane(16);
  pool.parallel_for_dynamic(lane.size(),
                            [&](std::size_t i) { lane[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : lane) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, RethrowsTheLowestLaneError) {
  ThreadPool pool(4);
  // Every shard throws, naming whether it ran on the caller (lane 0) or a
  // worker. A lane stops at its first failure, so the three workers take at
  // most three of the eight shards and the caller always throws too: its
  // error must win however the shards were handed out.
  const std::thread::id caller = std::this_thread::get_id();
  auto fn = [&](std::size_t) {
    if (std::this_thread::get_id() == caller) throw std::runtime_error("lane 0");
    throw std::runtime_error("worker lane");
  };
  try {
    pool.parallel_for_dynamic(8, fn);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 0");
  }
  // The pool must stay usable after a failed job.
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RejectsWidthBelowOne) {
  EXPECT_THROW(ThreadPool(0), Error);
  EXPECT_THROW(ThreadPool(-2), Error);
}

TEST(ThreadPoolTest, DynamicCoversEveryShardExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_dynamic(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ManyEpochsReuseTheSameWorkers) {
  ThreadPool pool(3);
  std::vector<long long> slots(9, 0);
  for (int epoch = 0; epoch < 200; ++epoch) {
    pool.parallel_for_dynamic(slots.size(), [&](std::size_t i) { slots[i] += 1; });
  }
  for (long long s : slots) EXPECT_EQ(s, 200);
}

}  // namespace
}  // namespace exadigit
