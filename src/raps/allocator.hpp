#pragma once

/// @file allocator.hpp
/// Node allocation for the RAPS scheduler.
///
/// Tracks which of the machine's nodes are free, allocates node sets for
/// jobs (contiguous-first, falling back to scattered fill — Frontier jobs
/// get rack-major node ranges when available, which also keeps rectifier
/// groups homogeneous for the power model), and supports multi-partition
/// machines (Section V) by restricting jobs to partition node ranges.
///
/// The free map is kept as a packed 64-bit bitmap so the first-fit and
/// scattered scans step a word (64 nodes) at a time — countr_zero/popcount
/// instead of a branch per node. Selection semantics are exactly the
/// original bit-by-bit scans (first-fit contiguous run, then ascending
/// scattered fill), so allocations — and everything downstream of them —
/// are unchanged; tests/raps/allocator_test.cpp pins the equivalence.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/system_config.hpp"

namespace exadigit {

/// Allocates and frees node index sets.
class NodeAllocator {
 public:
  explicit NodeAllocator(const SystemConfig& config);

  /// Total nodes managed.
  [[nodiscard]] int total_nodes() const { return total_nodes_; }
  /// Currently free nodes (optionally within a partition).
  [[nodiscard]] int free_nodes() const { return free_count_; }
  [[nodiscard]] int free_nodes_in(const std::string& partition) const;

  /// Attempts to allocate `count` nodes (contiguous run first, then
  /// scattered). Returns the node indices or nullopt when insufficient.
  /// `partition` empty means the whole machine.
  [[nodiscard]] std::optional<std::vector<int>> allocate(int count,
                                                         const std::string& partition = {});

  /// Releases previously allocated nodes. A node that is already free, out
  /// of range or listed twice throws, and the rejected call frees nothing.
  void release(const std::vector<int>& nodes);

  [[nodiscard]] bool is_free(int node) const;

  /// Nodes per rack occupancy (for heat maps / power aggregation).
  [[nodiscard]] std::vector<int> busy_per_rack() const;

 private:
  struct PartitionRange {
    std::string name;
    int begin = 0;
    int end = 0;  // exclusive
  };

  int total_nodes_;
  int free_count_;
  std::vector<std::uint64_t> free_words_;  ///< bit set = node free
  std::vector<PartitionRange> partitions_;
  int nodes_per_rack_;

  [[nodiscard]] PartitionRange range_for(const std::string& partition) const;
  [[nodiscard]] bool test(int node) const {
    return ((free_words_[static_cast<std::size_t>(node) >> 6] >> (node & 63)) & 1u) != 0;
  }
  void set_bit(int node) {
    free_words_[static_cast<std::size_t>(node) >> 6] |= std::uint64_t{1} << (node & 63);
  }
  void clear_bit(int node) {
    free_words_[static_cast<std::size_t>(node) >> 6] &= ~(std::uint64_t{1} << (node & 63));
  }
};

}  // namespace exadigit
