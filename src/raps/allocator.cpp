#include "raps/allocator.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace exadigit {

NodeAllocator::NodeAllocator(const SystemConfig& config)
    : total_nodes_(config.total_nodes()),
      free_count_(config.total_nodes()),
      free_words_((static_cast<std::size_t>(config.total_nodes()) + 63) / 64, ~std::uint64_t{0}),
      nodes_per_rack_(config.rack.nodes_per_rack) {
  // All nodes start free, a word at a time; tail bits past total_nodes_
  // stay 0 (busy) so the word scans never have to special-case the last
  // word.
  if (const int tail = total_nodes_ & 63; tail != 0) {
    free_words_.back() = (std::uint64_t{1} << tail) - 1;
  }
  int cursor = 0;
  for (const auto& p : config.partitions) {
    PartitionRange r;
    r.name = p.name;
    r.begin = cursor;
    r.end = cursor + p.node_count;
    require(r.end <= total_nodes_, "partition layout exceeds machine size");
    partitions_.push_back(r);
    cursor = r.end;
  }
}

NodeAllocator::PartitionRange NodeAllocator::range_for(const std::string& partition) const {
  if (partition.empty()) {
    return PartitionRange{"", 0, total_nodes_};
  }
  for (const auto& r : partitions_) {
    if (r.name == partition) return r;
  }
  throw ConfigError("unknown partition: " + partition);
}

int NodeAllocator::free_nodes_in(const std::string& partition) const {
  if (partition.empty()) return free_count_;
  const PartitionRange r = range_for(partition);
  int n = 0;
  int i = r.begin;
  while (i < r.end) {
    const int bit = i & 63;
    const int avail = std::min(64 - bit, r.end - i);
    std::uint64_t w = free_words_[static_cast<std::size_t>(i) >> 6] >> bit;
    if (avail < 64) w &= (std::uint64_t{1} << avail) - 1;
    n += std::popcount(w);
    i += avail;
  }
  return n;
}

std::optional<std::vector<int>> NodeAllocator::allocate(int count,
                                                        const std::string& partition) {
  require(count > 0, "allocation count must be positive");
  const PartitionRange range = range_for(partition);
  if (count > range.end - range.begin) return std::nullopt;

  // Pass 1: first-fit contiguous run, a word (64 nodes) at a time. The run
  // bookkeeping matches the original per-node scan exactly: the first index
  // where a free run reaches `count` wins, and the allocation is the first
  // `count` nodes of that run.
  int run_start = -1;
  int run_len = 0;
  for (int i = range.begin; i < range.end;) {
    const int bit = i & 63;
    const int avail = std::min(64 - bit, range.end - i);
    std::uint64_t w = free_words_[static_cast<std::size_t>(i) >> 6] >> bit;
    if (avail < 64) w &= (std::uint64_t{1} << avail) - 1;
    if (w == 0) {
      run_len = 0;
      i += avail;
      continue;
    }
    int pos = 0;
    while (pos < avail) {
      if ((w & 1u) == 0) {
        const int zeros = std::min(std::countr_zero(w), avail - pos);
        run_len = 0;
        pos += zeros;
        if (pos >= avail) break;
        w >>= zeros;
      } else {
        const int ones = std::min(std::countr_one(w), avail - pos);
        if (run_len == 0) run_start = i + pos;
        run_len += ones;
        if (run_len >= count) {
          std::vector<int> nodes(static_cast<std::size_t>(count));
          for (int k = 0; k < count; ++k) {
            nodes[static_cast<std::size_t>(k)] = run_start + k;
            clear_bit(run_start + k);
          }
          free_count_ -= count;
          return nodes;
        }
        pos += ones;
        if (pos >= avail) break;
        w >>= ones;
      }
    }
    i += avail;
  }

  // Pass 2: scattered fill (ascending) if the partition has enough free
  // nodes in total.
  std::vector<int> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  for (int i = range.begin; i < range.end && static_cast<int>(nodes.size()) < count;) {
    const int bit = i & 63;
    const int avail = std::min(64 - bit, range.end - i);
    std::uint64_t w = free_words_[static_cast<std::size_t>(i) >> 6] >> bit;
    if (avail < 64) w &= (std::uint64_t{1} << avail) - 1;
    while (w != 0 && static_cast<int>(nodes.size()) < count) {
      nodes.push_back(i + std::countr_zero(w));
      w &= w - 1;  // clear lowest set bit
    }
    i += avail;
  }
  if (static_cast<int>(nodes.size()) < count) return std::nullopt;
  for (int n : nodes) clear_bit(n);
  free_count_ -= count;
  return nodes;
}

void NodeAllocator::release(const std::vector<int>& nodes) {
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const int n = nodes[k];
    if (n < 0 || n >= total_nodes_ || test(n)) {
      // Undo this call's frees (each of those nodes was busy), so a rejected
      // release changes nothing. A node listed twice is caught here too.
      for (std::size_t j = 0; j < k; ++j) clear_bit(nodes[j]);
      require(n >= 0 && n < total_nodes_, "release of out-of-range node");
      // Message built only on failure: the old unconditional
      // string-concatenation argument dominated release() cost.
      throw ConfigError("double release of node " + std::to_string(n));
    }
    set_bit(n);
  }
  free_count_ += static_cast<int>(nodes.size());
}

bool NodeAllocator::is_free(int node) const {
  require(node >= 0 && node < total_nodes_, "node index out of range");
  return test(node);
}

std::vector<int> NodeAllocator::busy_per_rack() const {
  std::vector<int> racks(static_cast<std::size_t>((total_nodes_ + nodes_per_rack_ - 1) /
                                                  nodes_per_rack_),
                         0);
  for (int i = 0; i < total_nodes_; ++i) {
    if (!test(i)) {
      ++racks[static_cast<std::size_t>(i / nodes_per_rack_)];
    }
  }
  return racks;
}

}  // namespace exadigit
