#pragma once

/// @file thread_pool.hpp
/// A one-shot parallel loop for running independent jobs side by side.
///
/// A single twin runs serially; the parallelism that pays is across runs
/// (ScenarioRunner batches). `parallel_for_dynamic(width, n, fn)` runs
/// fn(0..n-1) on up to `width` lanes: the calling thread is lane 0, and
/// every other lane is a thread started for this call and joined before it
/// returns. Shards are handed out through an atomic cursor, so which lane
/// runs a shard depends on timing. Shards must therefore be fully
/// independent and slot-addressed: each writes only its own output slot,
/// and the results are then deterministic however the shards were
/// scheduled.
///
/// Exceptions thrown inside fn are captured per lane; once every lane is
/// joined, the one from the lowest lane is rethrown on the calling thread.
/// A lane stops taking shards after its first failure. Because shards are
/// handed out dynamically, which failing shard gets reported depends on
/// timing.
///
/// Width 1, or n <= 1, runs fn as a plain serial loop on the caller, with
/// no thread and no synchronization. A lane whose thread cannot be started
/// is left out, and the lanes that did start (the caller at least) take
/// its share.

#include <cstddef>
#include <functional>

namespace exadigit {

/// Runs fn(i) for i in [0, n) on up to `width` lanes (see the file
/// header). Throws ConfigError when `width` < 1.
void parallel_for_dynamic(int width, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace exadigit
