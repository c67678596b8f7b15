#include "raps/allocator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exadigit {
namespace {

TEST(AllocatorTest, FrontierCapacity) {
  NodeAllocator alloc(frontier_system_config());
  EXPECT_EQ(alloc.total_nodes(), 9472);
  EXPECT_EQ(alloc.free_nodes(), 9472);
}

TEST(AllocatorTest, ContiguousFirstFit) {
  NodeAllocator alloc(frontier_system_config());
  const auto nodes = alloc.allocate(128);
  ASSERT_TRUE(nodes.has_value());
  ASSERT_EQ(nodes->size(), 128u);
  for (int i = 0; i < 128; ++i) EXPECT_EQ((*nodes)[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(alloc.free_nodes(), 9472 - 128);
}

TEST(AllocatorTest, NoDoubleAllocation) {
  NodeAllocator alloc(frontier_system_config());
  std::set<int> seen;
  for (int k = 0; k < 30; ++k) {
    const auto nodes = alloc.allocate(100);
    ASSERT_TRUE(nodes.has_value());
    for (int n : *nodes) {
      EXPECT_TRUE(seen.insert(n).second) << "node " << n << " allocated twice";
    }
  }
}

TEST(AllocatorTest, ScatteredFallbackWhenFragmented) {
  SystemConfig small = frontier_system_config();
  small.cdu_count = 1;
  small.racks_per_cdu = 1;
  small.rack_count = 1;  // 128 nodes
  NodeAllocator alloc(small);
  // Fill the machine with eight 16-node blocks, then free alternating
  // blocks: 64 nodes free, but no contiguous run longer than 16.
  std::vector<std::vector<int>> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(*alloc.allocate(16));
  for (int i = 0; i < 8; i += 2) alloc.release(blocks[static_cast<std::size_t>(i)]);
  ASSERT_EQ(alloc.free_nodes(), 64);
  // A 40-node request cannot be contiguous; the scattered pass serves it.
  const auto scattered = alloc.allocate(40);
  ASSERT_TRUE(scattered.has_value());
  EXPECT_EQ(scattered->size(), 40u);
  EXPECT_EQ(alloc.free_nodes(), 24);
}

TEST(AllocatorTest, ExhaustionReturnsNullopt) {
  SystemConfig small = frontier_system_config();
  small.cdu_count = 1;
  small.racks_per_cdu = 1;
  small.rack_count = 1;
  NodeAllocator alloc(small);
  EXPECT_TRUE(alloc.allocate(128).has_value());
  EXPECT_FALSE(alloc.allocate(1).has_value());
}

TEST(AllocatorTest, ReleaseRestoresCapacity) {
  NodeAllocator alloc(frontier_system_config());
  const auto nodes = *alloc.allocate(500);
  alloc.release(nodes);
  EXPECT_EQ(alloc.free_nodes(), 9472);
  for (int n : nodes) EXPECT_TRUE(alloc.is_free(n));
}

TEST(AllocatorTest, DoubleReleaseThrows) {
  NodeAllocator alloc(frontier_system_config());
  const auto nodes = *alloc.allocate(4);
  alloc.release(nodes);
  EXPECT_THROW(alloc.release(nodes), ConfigError);

  // A rejected release frees nothing, whether the bad node is already
  // free, listed twice or out of range, and wherever it sits in the list.
  const std::vector<int> busy = *alloc.allocate(3);
  const int free_node = busy.back() + 1;
  ASSERT_TRUE(alloc.is_free(free_node));
  for (const std::vector<int>& bad :
       {std::vector<int>{busy[0], free_node}, std::vector<int>{busy[0], busy[1], busy[0]},
        std::vector<int>{busy[0], busy[1], 9472}, std::vector<int>{busy[2], -1}}) {
    EXPECT_THROW(alloc.release(bad), ConfigError);
    EXPECT_EQ(alloc.free_nodes(), 9472 - 3);
    EXPECT_EQ(alloc.free_nodes_in(""), 9472 - 3);
    for (const int n : busy) EXPECT_FALSE(alloc.is_free(n)) << "node " << n;
  }
  alloc.release(busy);
  EXPECT_EQ(alloc.free_nodes(), 9472);
}

TEST(AllocatorTest, BusyPerRackCounts) {
  const SystemConfig config = frontier_system_config();
  NodeAllocator alloc(config);
  (void)alloc.allocate(200);  // 128 in rack 0 + 72 in rack 1
  const std::vector<int> busy = alloc.busy_per_rack();
  ASSERT_EQ(busy.size(), 74u);
  EXPECT_EQ(busy[0], 128);
  EXPECT_EQ(busy[1], 72);
  EXPECT_EQ(busy[2], 0);
}

TEST(AllocatorTest, PartitionIsolation) {
  NodeAllocator alloc(setonix_like_config());
  // "work" partition holds 1024 nodes; a request larger than that fails
  // even though the machine has room.
  EXPECT_FALSE(alloc.allocate(1025, "work").has_value());
  const auto work = alloc.allocate(1000, "work");
  ASSERT_TRUE(work.has_value());
  for (int n : *work) EXPECT_LT(n, 1024);
  const auto gpu = alloc.allocate(500, "gpu");
  ASSERT_TRUE(gpu.has_value());
  for (int n : *gpu) {
    EXPECT_GE(n, 1024);
    EXPECT_LT(n, 1024 + 512);
  }
  EXPECT_EQ(alloc.free_nodes_in("work"), 24);
  EXPECT_EQ(alloc.free_nodes_in("gpu"), 12);
}

TEST(AllocatorTest, UnknownPartitionThrows) {
  NodeAllocator alloc(setonix_like_config());
  EXPECT_THROW(alloc.allocate(1, "debug"), ConfigError);
  EXPECT_THROW(alloc.free_nodes_in("debug"), ConfigError);
}

TEST(AllocatorTest, InvalidArguments) {
  NodeAllocator alloc(frontier_system_config());
  EXPECT_THROW(alloc.allocate(0), ConfigError);
  EXPECT_THROW(alloc.is_free(-1), ConfigError);
  EXPECT_THROW(alloc.release({99999}), ConfigError);
}

/// Property: random allocate/release sequences conserve the free count and
/// never hand out a busy node.
class AllocatorChurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorChurnProperty, ConservesInventory) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  NodeAllocator alloc(frontier_system_config());
  std::vector<std::vector<int>> held;
  for (int step = 0; step < 400; ++step) {
    if (!held.empty() && rng.bernoulli(0.45)) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(held.size()) - 1));
      alloc.release(held[i]);
      held[i] = std::move(held.back());
      held.pop_back();
    } else {
      const int want = static_cast<int>(rng.uniform_int(1, 800));
      auto nodes = alloc.allocate(want);
      if (nodes.has_value()) held.push_back(std::move(*nodes));
    }
    int held_count = 0;
    for (const auto& h : held) held_count += static_cast<int>(h.size());
    EXPECT_EQ(alloc.free_nodes() + held_count, 9472);
    // The whole-machine count is the maintained one; it must agree with
    // the bitmap.
    int busy = 0;
    for (const int b : alloc.busy_per_rack()) busy += b;
    EXPECT_EQ(alloc.free_nodes_in(""), 9472 - busy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorChurnProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace exadigit
