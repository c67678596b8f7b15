#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "config/config_json.hpp"
#include "config/system_config.hpp"
#include "scenario/scenario_registry.hpp"

namespace exadigit {
namespace {

const char* kBatchText = R"({
  "jobs": 2,
  "seed": 99,
  "scenarios": [
    {
      "name": "replay-day",
      "type": "replay",
      "source": {"kind": "dataset", "path": "/data/day1", "format": "exadigit-bin"},
      "params": {"cooling": false}
    },
    {
      "name": "dc380",
      "type": "whatif_dc380",
      "horizon_hours": 2.0,
      "seed": 12,
      "config": {"economics": {"electricity_usd_per_kwh": 0.12}}
    },
    {
      "name": "sweep",
      "type": "day_sweep",
      "params": {"days": 5}
    }
  ]
})";

TEST(ScenarioSpecTest, ParsesBatchFields) {
  const ScenarioBatch batch = ScenarioBatch::from_json(Json::parse(kBatchText));
  EXPECT_EQ(batch.jobs, 2);
  EXPECT_EQ(batch.seed, 99u);
  ASSERT_EQ(batch.scenarios.size(), 3u);

  const ScenarioSpec& replay = batch.scenarios[0];
  EXPECT_EQ(replay.name, "replay-day");
  EXPECT_EQ(replay.type, "replay");
  EXPECT_EQ(replay.source.kind, ScenarioSource::Kind::kDataset);
  EXPECT_EQ(replay.source.path, "/data/day1");
  EXPECT_EQ(replay.source.format, "exadigit-bin");
  EXPECT_FALSE(replay.seed.has_value());
  EXPECT_FALSE(replay.params.bool_or("cooling", true));

  const ScenarioSpec& dc = batch.scenarios[1];
  EXPECT_DOUBLE_EQ(dc.horizon_hours, 2.0);
  EXPECT_DOUBLE_EQ(dc.horizon_s(), 7200.0);
  ASSERT_TRUE(dc.seed.has_value());
  EXPECT_EQ(*dc.seed, 12u);
  EXPECT_TRUE(dc.config_delta.is_object());
}

TEST(ScenarioSpecTest, JsonRoundTripIsLossless) {
  // parse -> serialize -> parse must preserve every field.
  const ScenarioBatch first = ScenarioBatch::from_json(Json::parse(kBatchText));
  const ScenarioBatch second = ScenarioBatch::from_json(first.to_json());
  EXPECT_EQ(second.jobs, first.jobs);
  EXPECT_EQ(second.seed, first.seed);
  ASSERT_EQ(second.scenarios.size(), first.scenarios.size());
  for (std::size_t i = 0; i < first.scenarios.size(); ++i) {
    const ScenarioSpec& a = first.scenarios[i];
    const ScenarioSpec& b = second.scenarios[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.type, a.type);
    EXPECT_EQ(b.config_path, a.config_path);
    EXPECT_TRUE(b.config_delta == a.config_delta);
    EXPECT_EQ(b.source.kind, a.source.kind);
    EXPECT_EQ(b.source.path, a.source.path);
    EXPECT_EQ(b.source.format, a.source.format);
    EXPECT_DOUBLE_EQ(b.source.hours, a.source.hours);
    EXPECT_EQ(b.source.seed, a.source.seed);
    EXPECT_DOUBLE_EQ(b.horizon_hours, a.horizon_hours);
    EXPECT_EQ(b.seed, a.seed);
    EXPECT_TRUE(b.params == a.params);
    EXPECT_TRUE(b.to_json() == a.to_json());
  }
}

TEST(ScenarioSpecTest, SourceKindInferredFromPath) {
  // A bare path implies a dataset source; forgetting "kind" must never
  // silently substitute synthetic data for the user's dataset.
  const ScenarioSource inferred =
      ScenarioSource::from_json(Json::parse(R"({"path": "/data/day1"})"));
  EXPECT_EQ(inferred.kind, ScenarioSource::Kind::kDataset);
  // And an explicitly synthetic source must not carry a dead path.
  EXPECT_THROW(ScenarioSource::from_json(
                   Json::parse(R"({"kind": "synthetic", "path": "/data/day1"})")),
               ConfigError);
  // Nor a dead format.
  EXPECT_THROW(ScenarioSource::from_json(
                   Json::parse(R"({"kind": "synthetic", "format": "exadigit-bin"})")),
               ConfigError);
  // Format defaults to auto-detect for dataset sources.
  EXPECT_TRUE(inferred.format.empty());
}

// A replay streams an exadigit-bin source and resolves every other one
// whole; a source has no streaming keys, so chunk_seconds and
// max_resident_mb are unknown fields, like any typo.
void expect_unknown_source_field(const Json& source, const std::string& key) {
  try {
    (void)ScenarioSource::from_json(source);
    ADD_FAILURE() << key << " was accepted in " << source.dump();
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown scenario source field: \"" + key + "\""),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecTest, SourceChunkKnobsRoundTrip) {
  // A source round-trips without the chunk knobs: to_json writes neither,
  // and a source carrying either cannot be read back.
  const ScenarioSource s = ScenarioSource::from_json(
      Json::parse(R"({"kind": "dataset", "path": "/data/day1", "format": "exadigit-bin"})"));
  const Json j = s.to_json();
  EXPECT_EQ(j.as_object().count("chunk_seconds"), 0u);
  EXPECT_EQ(j.as_object().count("max_resident_mb"), 0u);
  EXPECT_TRUE(ScenarioSource::from_json(j).to_json() == j);
  for (const char* key : {"chunk_seconds", "max_resident_mb"}) {
    Json with_knob = j;
    with_knob[key] = Json(key == std::string("chunk_seconds") ? 3600.0 : 64.0);
    expect_unknown_source_field(with_knob, key);
  }
}

TEST(ScenarioSpecTest, SourceChunkKnobsValidated) {
  // No value of a removed key is read: one the old range checks accepted,
  // one they rejected, and either on a synthetic source.
  for (const char* key : {"chunk_seconds", "max_resident_mb"}) {
    for (const char* base : {R"({"kind": "dataset", "path": "/data/day1"})",
                             R"({"kind": "synthetic"})"}) {
      for (const double value : {8.0, 0.0, -0.5}) {
        Json source = Json::parse(base);
        source[key] = Json(value);
        expect_unknown_source_field(source, key);
      }
    }
  }
}

TEST(ScenarioSpecTest, BareArrayBatch) {
  const ScenarioBatch batch =
      ScenarioBatch::from_json(Json::parse(R"([{"type": "simulate"}])"));
  EXPECT_EQ(batch.jobs, 0);
  ASSERT_EQ(batch.scenarios.size(), 1u);
  EXPECT_EQ(batch.scenarios[0].name, "simulate");  // name defaults to the type
}

TEST(ScenarioSpecTest, UnknownFieldsThrow) {
  EXPECT_THROW(ScenarioSpec::from_json(Json::parse(R"({"type": "simulate", "hrs": 2})")),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::from_json(
                   Json::parse(R"({"type": "simulate", "source": {"kindd": "x"}})")),
               ConfigError);
  EXPECT_THROW(
      ScenarioBatch::from_json(Json::parse(R"({"scenarios": [], "workers": 3})")),
      ConfigError);
}

TEST(ScenarioSpecTest, InvalidValuesThrow) {
  // Missing type.
  EXPECT_THROW(ScenarioSpec::from_json(Json::parse(R"({"name": "x"})")), ConfigError);
  // Bad source kind.
  EXPECT_THROW(ScenarioSpec::from_json(
                   Json::parse(R"({"type": "replay", "source": {"kind": "ftp"}})")),
               ConfigError);
  // Dataset source without a path.
  EXPECT_THROW(ScenarioSpec::from_json(
                   Json::parse(R"({"type": "replay", "source": {"kind": "dataset"}})")),
               ConfigError);
  // Non-positive horizon.
  EXPECT_THROW(
      ScenarioSpec::from_json(Json::parse(R"({"type": "simulate", "horizon_hours": 0})")),
      ConfigError);
  // Non-object config delta / params.
  EXPECT_THROW(
      ScenarioSpec::from_json(Json::parse(R"({"type": "simulate", "config": 3})")),
      ConfigError);
  EXPECT_THROW(
      ScenarioSpec::from_json(Json::parse(R"({"type": "simulate", "params": [1]})")),
      ConfigError);
  // Not an object or array at the top level.
  EXPECT_THROW(ScenarioBatch::from_json(Json(3.0)), ConfigError);
  // Duplicate names.
  EXPECT_THROW(ScenarioBatch::from_json(Json::parse(
                   R"([{"type": "simulate", "name": "a"}, {"type": "replay", "name": "a"}])")),
               ConfigError);
  // Distinct names that collide after sanitizing would overwrite each
  // other's export files.
  EXPECT_THROW(
      ScenarioBatch::from_json(Json::parse(
          R"([{"type": "simulate", "name": "run:1"}, {"type": "replay", "name": "run_1"}])")),
      ConfigError);
}

TEST(ScenarioSpecTest, UnknownParamsFieldThrows) {
  // params typos must fail loudly, not silently run defaults.
  ScenarioSpec sweep;
  sweep.name = "sweep";
  sweep.type = "day_sweep";
  sweep.params = Json::parse(R"({"day": 183})");  // should be "days"
  EXPECT_THROW((void)ScenarioRegistry::instance().run(sweep), ConfigError);

  ScenarioSpec rect;
  rect.name = "rect";
  rect.type = "whatif_smart_rectifiers";
  rect.params = Json::parse(R"({"cooling": true})");  // type takes no params
  EXPECT_THROW((void)ScenarioRegistry::instance().run(rect), ConfigError);
}

/// An integer param takes what int holds and refuses the rest by name,
/// rather than wrapping 2^32 + 1 days to a valid one-day sweep.
TEST(ScenarioSpecTest, IntParamOutsideIntIsRefused) {
  ScenarioSpec sweep;
  sweep.name = "sweep";
  sweep.type = "day_sweep";
  for (const char* params : {R"({"days": 4294967297, "cooling": false})",
                             R"({"days": -4294967295, "cooling": false})"}) {
    sweep.params = Json::parse(params);
    try {
      (void)ScenarioRegistry::instance().run(sweep);
      ADD_FAILURE() << params << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("params.days"), std::string::npos) << e.what();
    }
  }
}

/// A batch's worker count refuses what int cannot hold rather than
/// wrapping 2^32 + 2 to two workers.
TEST(ScenarioSpecTest, BatchJobsOutsideIntIsRefused) {
  try {
    (void)ScenarioBatch::from_json(Json::parse(R"({"scenarios": [], "jobs": 4294967298})"));
    ADD_FAILURE() << "jobs = 4294967298 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("jobs = 4294967298"), std::string::npos) << e.what();
  }
}

TEST(ScenarioRegistryTest, RequireTypeValidatesWithoutRunning) {
  ScenarioRegistry::instance().require_type("simulate");  // no throw, no work
  EXPECT_THROW(ScenarioRegistry::instance().require_type("warp_drive"), ConfigError);
}

TEST(ScenarioSpecTest, ResolveConfigAppliesDelta) {
  ScenarioSpec spec;
  spec.type = "whatif_dc380";
  spec.config_delta = Json::parse(R"({"economics": {"electricity_usd_per_kwh": 0.5}})");
  const SystemConfig resolved = spec.resolve_config();
  const SystemConfig frontier = frontier_system_config();
  EXPECT_DOUBLE_EQ(resolved.economics.electricity_usd_per_kwh, 0.5);
  // Untouched fields keep their Frontier values.
  EXPECT_DOUBLE_EQ(resolved.economics.emission_lbs_per_mwh,
                   frontier.economics.emission_lbs_per_mwh);
  EXPECT_EQ(resolved.rack_count, frontier.rack_count);
  EXPECT_EQ(resolved.cdu_count, frontier.cdu_count);
}

/// cooling.step_s is no longer a descriptor key (every plant caller steps
/// at simulation.cooling_quantum_s), so a delta that still sets it resolves
/// to the plain Frontier descriptor.
TEST(ScenarioSpecTest, StaleCoolingStepDeltaIsIgnored) {
  ScenarioSpec spec;
  spec.type = "optimize_setpoint";
  spec.config_delta = Json::parse(R"({"cooling": {"step_s": 60}})");
  EXPECT_EQ(system_config_to_json(spec.resolve_config()).dump(),
            frontier_descriptor_json().dump());
}

TEST(ScenarioSpecTest, UnknownTypeListsKnownTypes) {
  ScenarioSpec spec;
  spec.name = "mystery";
  spec.type = "warp_drive";
  try {
    (void)ScenarioRegistry::instance().run(spec);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp_drive"), std::string::npos);
    EXPECT_NE(what.find("whatif_dc380"), std::string::npos);
    EXPECT_NE(what.find("day_sweep"), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, BuiltinTypesRegistered) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const char* type :
       {"simulate", "replay", "cooling_validation", "whatif", "whatif_smart_rectifiers",
        "whatif_dc380", "whatif_cooling_extension", "day_sweep", "thermal_scan",
        "optimize_setpoint"}) {
    EXPECT_TRUE(registry.contains(type)) << type;
  }
}

TEST(ScenarioRegistryTest, CustomRegistration) {
  ScenarioRegistry registry;
  registry.register_type("custom", [](const ScenarioSpec&) {
    ScenarioResult r;
    r.add_metric("answer", 42.0);
    return r;
  });
  ScenarioSpec spec;
  spec.name = "c";
  spec.type = "custom";
  const ScenarioResult result = registry.run(spec);
  EXPECT_EQ(result.status, ScenarioResult::Status::kDone);
  EXPECT_EQ(result.name, "c");
  EXPECT_EQ(result.type, "custom");
  EXPECT_DOUBLE_EQ(result.metric("answer"), 42.0);
  EXPECT_THROW(result.metric("missing"), ConfigError);
}

}  // namespace
}  // namespace exadigit
