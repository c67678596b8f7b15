#pragma once

/// @file scenario_spec.hpp
/// Declarative scenario descriptors (paper Section V / Fig. 6).
///
/// The paper's twin is steered by JSON descriptors and serves many
/// experiments at once — replays, what-ifs, and 183-day sweeps "run in
/// parallel on a single Frontier node". A ScenarioSpec is the declarative
/// unit of that surface: it names a workflow type from the
/// ScenarioRegistry, a base system descriptor plus a config *delta*
/// (RFC 7386-style merge patch), a workload/telemetry source, a horizon,
/// and a seed. A ScenarioBatch is a list of specs plus runner settings;
/// both round-trip through JSON so a batch file is the single entry point
/// to every twin workflow.
///
/// A dataset source reaches a workflow through resolve_dataset, which asks
/// the one process-wide seam (set_scenario_dataset_loader) and otherwise
/// load_source_dataset, the one format dispatch. The replay workflow is
/// the one exception: it streams an exadigit-bin source off disk chunk by
/// chunk (telemetry/chunk.hpp) rather than loading it.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/system_config.hpp"
#include "json/json.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

/// Where a scenario's workload/telemetry comes from.
struct ScenarioSource {
  enum class Kind {
    kSynthetic,  ///< record a synthetic physical-twin dataset on the fly
    kDataset,    ///< load a saved dataset from `path`
  };
  Kind kind = Kind::kSynthetic;
  std::string path;           ///< dataset directory (kDataset)
  /// TelemetryReaderRegistry format for kDataset sources ("exadigit-csv",
  /// "exadigit-bin", "swf", ...). Empty = auto-detect the native format
  /// from the dataset's manifest.json.
  std::string format;
  double hours = 1.0;         ///< recorded window length (kSynthetic)
  std::uint64_t seed = 2024;  ///< workload/recording seed (kSynthetic)

  static ScenarioSource from_json(const Json& j);
  [[nodiscard]] Json to_json() const;
};

/// One declarative scenario: everything a registry factory needs to run.
struct ScenarioSpec {
  std::string name;         ///< unique label within a batch
  std::string type;         ///< ScenarioRegistry key (e.g. "replay")
  std::string config_path;  ///< base descriptor file; empty = Frontier
  /// Merge-patched over the base descriptor (null = no delta): objects
  /// merge recursively, null members delete, scalars replace.
  Json config_delta;
  ScenarioSource source;      ///< used by replay/validation workflows
  double horizon_hours = 1.0; ///< simulated window for workload scenarios
  /// Unset = the runner derives a deterministic per-spec seed from the
  /// batch seed and the spec's position.
  std::optional<std::uint64_t> seed;
  Json params;                ///< type-specific knobs (free-form object)

  /// The spec seed, or `fallback` when unset.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed.value_or(fallback);
  }
  [[nodiscard]] double horizon_s() const { return horizon_hours * 3600.0; }

  /// Base descriptor (Frontier or `config_path`) with `config_delta`
  /// applied. The plain Frontier config is returned without a JSON
  /// round-trip so delta-free scenarios match direct-call paths exactly.
  [[nodiscard]] SystemConfig resolve_config() const;

  /// Materializes the telemetry source: loads `source.path` through the
  /// installed dataset loader (load_source_dataset by default), or records
  /// a synthetic dataset under `config` (same path as `exadigit_cli
  /// record`). Shared and immutable: a loader that keeps datasets resident
  /// hands every caller the one resident copy.
  [[nodiscard]] std::shared_ptr<const TelemetryDataset> resolve_dataset(
      const SystemConfig& config) const;

  /// Parses a spec object; unknown keys are ConfigErrors so typos in batch
  /// files fail loudly rather than silently running defaults.
  static ScenarioSpec from_json(const Json& j);
  [[nodiscard]] Json to_json() const;
};

/// A batch file: scenarios plus runner settings.
struct ScenarioBatch {
  std::vector<ScenarioSpec> scenarios;
  int jobs = 0;               ///< worker cap; 0 = hardware concurrency
  std::uint64_t seed = 42;    ///< base for derived per-spec seeds

  /// Accepts either `{"scenarios": [...], "jobs": N, "seed": S}` or a bare
  /// array of specs. Duplicate scenario names are ConfigErrors (exports
  /// are keyed by name).
  static ScenarioBatch from_json(const Json& j);
  [[nodiscard]] Json to_json() const;

  static ScenarioBatch load_file(const std::string& path) {
    return from_json(Json::load_file(path));
  }
};

/// Loads a kDataset source from disk: the reader registry for a named
/// `format`, the manifest's format otherwise. The one format dispatch of a
/// scenario's dataset: resolve_dataset's default and the scenario
/// service's resident loader both call it.
[[nodiscard]] TelemetryDataset load_source_dataset(const ScenarioSource& source);

/// The one process-wide seam of dataset-source resolution. When installed,
/// ScenarioSpec::resolve_dataset routes every kDataset source through
/// `loader` instead of load_source_dataset — this is how the long-lived
/// scenario service keeps loaded datasets resident across requests (one per
/// directory, format and mtime; see server/scenario_service.hpp) without
/// the workflow factories knowing a cache exists. Synthetic sources are
/// unaffected, and so is a replay of an exadigit-bin source, which streams
/// off disk. Pass an empty function to restore the default. Install before
/// serving: the setter is thread-safe, but swapping loaders while scenarios
/// run gives an arbitrary mix of old and new resolution.
using ScenarioDatasetLoader =
    std::function<std::shared_ptr<const TelemetryDataset>(const ScenarioSource&)>;
void set_scenario_dataset_loader(ScenarioDatasetLoader loader);

/// The paper-style synthetic wet-bulb boundary series used by workload
/// scenarios: 60 s samples over `duration_s`, deterministic in `seed`.
[[nodiscard]] TimeSeries synthetic_wetbulb_series(double duration_s, std::uint64_t seed);

}  // namespace exadigit
