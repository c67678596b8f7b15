/// Unit tests for the one-shot parallel loop (common/thread_pool.hpp): full
/// shard coverage under dynamic hand-out, exception propagation and
/// degenerate widths.

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
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> lane(16);
  parallel_for_dynamic(1, lane.size(),
                       [&](std::size_t i) { lane[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : lane) EXPECT_EQ(id, caller);
  // A single shard runs on the caller at any width.
  std::thread::id single;
  parallel_for_dynamic(4, 1, [&](std::size_t) { single = std::this_thread::get_id(); });
  EXPECT_EQ(single, caller);
}

TEST(ThreadPoolTest, RethrowsTheLowestLaneError) {
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
    parallel_for_dynamic(4, 8, fn);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 0");
  }
  // A failed call leaves nothing behind: the next one covers every shard.
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h.store(0);
  parallel_for_dynamic(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RejectsWidthBelowOne) {
  bool called = false;
  const auto fn = [&](std::size_t) { called = true; };
  EXPECT_THROW(parallel_for_dynamic(0, 4, fn), ConfigError);
  EXPECT_THROW(parallel_for_dynamic(-2, 4, fn), ConfigError);
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, DynamicCoversEveryShardExactlyOnce) {
  std::vector<std::atomic<int>> hits(101);
  for (auto& h : hits) h.store(0);
  parallel_for_dynamic(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  bool called = false;
  parallel_for_dynamic(2, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace exadigit
