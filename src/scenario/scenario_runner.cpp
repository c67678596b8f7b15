#include "scenario/scenario_runner.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/thread_pool.hpp"

namespace exadigit {

std::uint64_t derive_scenario_seed(std::uint64_t batch_seed, std::size_t index) {
  // splitmix64 over (batch_seed + index): well-mixed, collision-free per
  // batch, and stable across platforms.
  std::uint64_t z = batch_seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void resolve_scenario_seeds(std::vector<ScenarioSpec>& specs, std::uint64_t batch_seed) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!specs[i].seed.has_value()) specs[i].seed = derive_scenario_seed(batch_seed, i);
  }
}

ScenarioResult run_isolated(const ScenarioSpec& spec, const ScenarioRegistry& registry) {
  ScenarioResult failed;
  try {
    return registry.run(spec);
  } catch (const std::exception& e) {
    failed.error = e.what();
  } catch (...) {
    failed.error = "unknown non-standard exception";
  }
  failed.name = spec.name;
  failed.type = spec.type;
  failed.status = ScenarioResult::Status::kFailed;
  return failed;
}

std::vector<ScenarioResult> ScenarioRunner::run(const std::vector<ScenarioSpec>& specs,
                                                const ScenarioRegistry& registry) const {
  // Resolve effective specs up front so seeding is deterministic in batch
  // order, independent of which worker picks up which scenario.
  std::vector<ScenarioSpec> effective = specs;
  resolve_scenario_seeds(effective, options_.batch_seed);

  std::vector<ScenarioResult> results(effective.size());
  if (effective.empty()) return results;

  std::mutex status_mutex;
  const auto notify = [&](std::size_t index, ScenarioResult::Status status) {
    if (!options_.on_status) return;
    const std::lock_guard<std::mutex> lock(status_mutex);
    options_.on_status(index, effective[index], status);
  };
  // One mutex serializes both callbacks, so a result can never be observed
  // before its own completion status.
  const auto notify_result = [&](std::size_t index, const ScenarioResult& result) {
    if (!options_.on_result) return;
    const std::lock_guard<std::mutex> lock(status_mutex);
    options_.on_result(index, effective[index], result);
  };

  const auto run_one = [&](std::size_t i) {
    notify(i, ScenarioResult::Status::kRunning);
    results[i] = run_isolated(effective[i], registry);
    notify(i, results[i].status);
    notify_result(i, results[i]);
  };

  // Scenarios are heavy and uneven, so hand them out dynamically; every
  // result is slot-addressed and seeds were fixed above, so the outputs do
  // not depend on which lane runs which scenario.
  std::size_t width = options_.jobs > 0 ? static_cast<std::size_t>(options_.jobs)
                                        : static_cast<std::size_t>(
                                              std::thread::hardware_concurrency());
  width = std::clamp<std::size_t>(width, 1, effective.size());
  parallel_for_dynamic(static_cast<int>(width), effective.size(), run_one);
  return results;
}

std::vector<ScenarioResult> ScenarioRunner::run(const ScenarioBatch& batch,
                                                const ScenarioRegistry& registry) const {
  ScenarioRunner effective(*this);
  if (effective.options_.jobs <= 0) effective.options_.jobs = batch.jobs;
  effective.options_.batch_seed = batch.seed;
  return effective.run(batch.scenarios, registry);
}

}  // namespace exadigit
