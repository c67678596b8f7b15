#pragma once

/// @file scenario_runner.hpp
/// Concurrent batch execution of scenarios on parallel lanes.
///
/// The paper runs whole families of experiments at once — 183 replay days
/// "in parallel on a single Frontier node" — and the service view of the
/// twin evaluates many policies concurrently. The runner reproduces that
/// shape for declarative batches: N lanes take specs from a shared cursor
/// (parallel_for_dynamic, common/thread_pool.hpp), every spec gets a
/// deterministic seed (its own, or one derived from the batch seed and its
/// position), per-scenario status is reported through a callback, and one
/// failed scenario never takes down the batch.

#include <cstdint>
#include <functional>
#include <vector>

#include "scenario/scenario_registry.hpp"
#include "scenario/scenario_result.hpp"
#include "scenario/scenario_spec.hpp"

namespace exadigit {

/// Deterministic per-spec seed for specs that do not pin one: a splitmix64
/// mix of the batch seed and the spec's position in the batch.
[[nodiscard]] std::uint64_t derive_scenario_seed(std::uint64_t batch_seed,
                                                 std::size_t index);

/// Gives each spec without a seed derive_scenario_seed(batch_seed, i), i its
/// position, so no seed depends on which worker runs the spec.
void resolve_scenario_seeds(std::vector<ScenarioSpec>& specs, std::uint64_t batch_seed);

/// Runs one spec. Any throw becomes a kFailed result carrying its message
/// ("unknown non-standard exception" for one that is not a std::exception),
/// never an escape from the worker thread running it.
[[nodiscard]] ScenarioResult run_isolated(const ScenarioSpec& spec,
                                          const ScenarioRegistry& registry);

/// Executes batches of scenario specs concurrently.
class ScenarioRunner {
 public:
  struct Options {
    /// Lane cap; <= 0 means hardware concurrency. A batch never runs on
    /// more lanes than it has scenarios.
    int jobs = 0;
    /// Base seed for specs without one (see derive_scenario_seed).
    std::uint64_t batch_seed = 42;
    /// Per-scenario status transitions (kRunning, then kDone/kFailed),
    /// serialized — implementations need no locking. The spec passed is
    /// the *effective* spec (derived seed filled in).
    std::function<void(std::size_t index, const ScenarioSpec& spec,
                       ScenarioResult::Status status)>
        on_status;
    /// Completed results as they finish, in completion order (immediately
    /// after that scenario's kDone/kFailed on_status), serialized like
    /// on_status. This is the streaming hook long-lived services use to
    /// push results to clients while the rest of the batch still runs; the
    /// reference passed aliases the slot returned by run().
    std::function<void(std::size_t index, const ScenarioSpec& spec,
                       const ScenarioResult& result)>
        on_result;
  };

  ScenarioRunner() = default;
  explicit ScenarioRunner(Options options) : options_(std::move(options)) {}

  /// Runs every spec through `registry` on up to `jobs` lanes and returns the
  /// results in spec order. A factory throw marks that scenario kFailed
  /// (result.error holds the message) and the batch continues.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioSpec>& specs,
      const ScenarioRegistry& registry = ScenarioRegistry::instance()) const;

  /// Convenience: runs a parsed batch file. `Options::jobs` wins when
  /// positive, otherwise the batch's own `jobs` applies; the batch seed
  /// always comes from the file.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const ScenarioBatch& batch,
      const ScenarioRegistry& registry = ScenarioRegistry::instance()) const;

 private:
  Options options_;
};

}  // namespace exadigit
