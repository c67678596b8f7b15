#include "scenario/scenario_spec.hpp"

#include <mutex>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"
#include "scenario/scenario_key.hpp"
#include "scenario/scenario_result.hpp"
#include "telemetry/store.hpp"
#include "telemetry/weather.hpp"

namespace exadigit {

namespace {

/// Rejects keys outside `allowed` so batch-file typos fail loudly.
void check_keys(const Json& j, const std::set<std::string>& allowed,
                const std::string& where) {
  for (const auto& [key, value] : j.as_object()) {
    (void)value;
    if (allowed.count(key) == 0) {
      throw ConfigError("unknown " + where + " field: \"" + key + "\"");
    }
  }
}

std::mutex dataset_loader_mutex;
ScenarioDatasetLoader dataset_loader;  // empty = load_source_dataset

ScenarioDatasetLoader current_dataset_loader() {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  return dataset_loader;
}

}  // namespace

void set_scenario_dataset_loader(ScenarioDatasetLoader loader) {
  const std::lock_guard<std::mutex> lock(dataset_loader_mutex);
  dataset_loader = std::move(loader);
}

TelemetryDataset load_source_dataset(const ScenarioSource& source) {
  // Explicit formats go through the reader registry (so bespoke adapters
  // like "swf" work); otherwise the single-pass columnar loader
  // auto-detects the native format from the manifest.
  if (!source.format.empty()) {
    return TelemetryReaderRegistry::instance().load(source.format, source.path);
  }
  return load_dataset(source.path);
}

TimeSeries synthetic_wetbulb_series(double duration_s, std::uint64_t seed) {
  SyntheticWeather weather(WeatherConfig{}, Rng(seed));
  TimeSeries raw = weather.generate(120.0 * units::kSecondsPerDay, duration_s + 120.0);
  TimeSeries shifted;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    shifted.push_back(static_cast<double>(i) * 60.0, raw.value(i));
  }
  return shifted;
}

ScenarioSource ScenarioSource::from_json(const Json& j) {
  if (!j.is_object()) throw ConfigError("scenario source must be an object");
  check_keys(j, {"kind", "path", "format", "hours", "seed"}, "scenario source");
  ScenarioSource s;
  s.path = j.string_or("path", "");
  s.format = j.string_or("format", "");
  // A bare "path" implies a dataset source, so forgetting "kind" can never
  // silently replace the user's data with a synthetic recording.
  const std::string kind = j.string_or("kind", s.path.empty() ? "synthetic" : "dataset");
  if (kind == "synthetic") {
    s.kind = Kind::kSynthetic;
  } else if (kind == "dataset") {
    s.kind = Kind::kDataset;
  } else {
    throw ConfigError("unknown scenario source kind: \"" + kind +
                      "\" (expected \"synthetic\" or \"dataset\")");
  }
  s.hours = j.number_or("hours", s.hours);
  s.seed = static_cast<std::uint64_t>(j.int_or("seed", static_cast<std::int64_t>(s.seed)));
  require(s.hours > 0.0, "scenario source hours must be positive");
  require(s.kind != Kind::kDataset || !s.path.empty(),
          "dataset scenario source requires a path");
  require(s.kind != Kind::kSynthetic || s.path.empty(),
          "synthetic scenario source does not take a path");
  require(s.kind != Kind::kSynthetic || s.format.empty(),
          "synthetic scenario source does not take a format");
  return s;
}

Json ScenarioSource::to_json() const {
  Json j;
  j["kind"] = kind == Kind::kSynthetic ? "synthetic" : "dataset";
  if (!path.empty()) j["path"] = path;
  if (!format.empty()) j["format"] = format;
  j["hours"] = hours;
  j["seed"] = static_cast<std::int64_t>(seed);
  return j;
}

SystemConfig ScenarioSpec::resolve_config() const {
  if (config_path.empty() && config_delta.is_null()) return frontier_system_config();
  return system_config_from_json(resolved_config_json(*this));
}

std::shared_ptr<const TelemetryDataset> ScenarioSpec::resolve_dataset(
    const SystemConfig& config) const {
  if (source.kind == ScenarioSource::Kind::kDataset) {
    // A long-lived service may have installed a residency cache.
    if (const ScenarioDatasetLoader loader = current_dataset_loader(); loader) {
      return loader(source);
    }
    return std::make_shared<const TelemetryDataset>(load_source_dataset(source));
  }
  // Same recording path as `exadigit_cli record`: a perturbed physical twin
  // runs the workload and samples every Table II channel.
  const double duration = source.hours * units::kSecondsPerHour;
  WorkloadGenerator gen(config.workload, config, Rng(source.seed));
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  return std::make_shared<const TelemetryDataset>(physical.record(
      gen.generate(0.0, duration), synthetic_wetbulb_series(duration, source.seed + 1),
      duration));
}

ScenarioSpec ScenarioSpec::from_json(const Json& j) {
  if (!j.is_object()) throw ConfigError("scenario spec must be an object");
  check_keys(j,
             {"name", "type", "config_path", "config", "source", "horizon_hours", "seed",
              "params"},
             "scenario spec");
  ScenarioSpec s;
  s.type = j.string_or("type", "");
  require(!s.type.empty(), "scenario spec requires a \"type\"");
  s.name = j.string_or("name", s.type);
  s.config_path = j.string_or("config_path", "");
  if (j.contains("config")) {
    const Json& delta = j.at("config");
    require(delta.is_object(), "scenario \"config\" delta must be an object");
    s.config_delta = delta;
  }
  if (j.contains("source")) s.source = ScenarioSource::from_json(j.at("source"));
  s.horizon_hours = j.number_or("horizon_hours", s.horizon_hours);
  require(s.horizon_hours > 0.0, "scenario horizon_hours must be positive");
  if (j.contains("seed")) s.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  if (j.contains("params")) {
    const Json& params = j.at("params");
    require(params.is_object(), "scenario \"params\" must be an object");
    s.params = params;
  }
  return s;
}

Json ScenarioSpec::to_json() const {
  Json j;
  j["name"] = name;
  j["type"] = type;
  if (!config_path.empty()) j["config_path"] = config_path;
  if (!config_delta.is_null()) j["config"] = config_delta;
  j["source"] = source.to_json();
  j["horizon_hours"] = horizon_hours;
  if (seed.has_value()) j["seed"] = static_cast<std::int64_t>(*seed);
  if (!params.is_null()) j["params"] = params;
  return j;
}

ScenarioBatch ScenarioBatch::from_json(const Json& j) {
  ScenarioBatch batch;
  const Json* scenarios = &j;
  if (j.is_object()) {
    check_keys(j, {"scenarios", "jobs", "seed"}, "scenario batch");
    require(j.contains("scenarios"), "scenario batch requires a \"scenarios\" array");
    scenarios = &j.at("scenarios");
    batch.jobs = j.int32_or("jobs", batch.jobs);
    require(batch.jobs >= 0, "scenario batch jobs must be >= 0");
    batch.seed = static_cast<std::uint64_t>(
        j.int_or("seed", static_cast<std::int64_t>(batch.seed)));
  }
  if (!scenarios->is_array()) {
    throw ConfigError("scenario batch must be an array or an object with \"scenarios\"");
  }
  std::set<std::string> names;
  for (const Json& spec : scenarios->as_array()) {
    batch.scenarios.push_back(ScenarioSpec::from_json(spec));
    const std::string& name = batch.scenarios.back().name;
    // Uniqueness is checked on the *sanitized* name: export files are keyed
    // by it, so "run:1" and "run_1" would silently overwrite each other.
    require(names.insert(sanitize_scenario_name(name)).second,
            "duplicate scenario name (after sanitizing): \"" + name + "\"");
  }
  return batch;
}

Json ScenarioBatch::to_json() const {
  Json j;
  j["jobs"] = jobs;
  j["seed"] = static_cast<std::int64_t>(seed);
  Json list{Json::Array{}};
  for (const ScenarioSpec& s : scenarios) list.push_back(s.to_json());
  j["scenarios"] = std::move(list);
  return j;
}

}  // namespace exadigit
