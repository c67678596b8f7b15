#include "scenario/scenario_key.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "config/config_json.hpp"
#include "json/json.hpp"
#include "scenario/scenario_result.hpp"
#include "scenario/scenario_spec.hpp"

namespace exadigit {
namespace {

ScenarioSpec spec_from(const std::string& text) {
  return ScenarioSpec::from_json(Json::parse(text));
}

std::string csv_text(const CsvDocument& doc) {
  std::ostringstream os;
  doc.write(os);
  return os.str();
}

TEST(ScenarioKeyTest, MemberOrderNeverChangesTheKey) {
  // The same spec spelled with two different member orders (and a different
  // but value-identical number spelling) must produce identical canonical
  // JSON and identical hashes — the cache-key foundation.
  const ScenarioSpec a = spec_from(R"({
    "name": "wif", "type": "whatif_dc380", "horizon_hours": 0.5,
    "seed": 7, "params": {"b": 2, "a": 0.1}
  })");
  const ScenarioSpec b = spec_from(R"({
    "params": {"a": 1e-1, "b": 2}, "seed": 7,
    "horizon_hours": 0.5, "type": "whatif_dc380", "name": "wif"
  })");
  EXPECT_EQ(canonical_spec_json(a).dump(), canonical_spec_json(b).dump());
  EXPECT_EQ(scenario_cache_key(a), scenario_cache_key(b));
}

TEST(ScenarioKeyTest, EveryResultBearingFieldPerturbsTheSpecHash) {
  const char* base = R"({"name": "n", "type": "simulate", "horizon_hours": 1, "seed": 1})";
  const ScenarioKey key = scenario_cache_key(spec_from(base));
  const char* variants[] = {
      R"({"name": "other", "type": "simulate", "horizon_hours": 1, "seed": 1})",
      R"({"name": "n", "type": "replay", "horizon_hours": 1, "seed": 1})",
      R"({"name": "n", "type": "simulate", "horizon_hours": 2, "seed": 1})",
      R"({"name": "n", "type": "simulate", "horizon_hours": 1, "seed": 2})",
      R"({"name": "n", "type": "simulate", "horizon_hours": 1, "seed": 1,
          "params": {"cooling": false}})",
      R"({"name": "n", "type": "simulate", "horizon_hours": 1, "seed": 1,
          "source": {"kind": "synthetic", "hours": 2}})",
  };
  for (const char* variant : variants) {
    EXPECT_NE(scenario_cache_key(spec_from(variant)).spec_hash, key.spec_hash)
        << variant;
  }
}

TEST(ScenarioKeyTest, EquivalentMergePatchDeltasShareTheConfigHash) {
  // Two deltas that spell the same resolved descriptor (RFC 7386 merges
  // recursively) are the same scenario; config_path/config must not leak
  // into the spec hash.
  const ScenarioSpec plain = spec_from(R"({"type": "simulate", "seed": 3})");
  const ScenarioSpec redundant = spec_from(R"({
    "type": "simulate", "seed": 3,
    "config": {"name": "frontier"}
  })");
  // "frontier" is the default name, so the merged descriptor is
  // unchanged: identical config hash, identical spec hash.
  const Json& frontier = frontier_descriptor_json();
  ASSERT_EQ(resolved_config_json(redundant).dump(), frontier.dump());
  EXPECT_EQ(scenario_cache_key(plain), scenario_cache_key(redundant));

  const ScenarioSpec changed = spec_from(R"({
    "type": "simulate", "seed": 3,
    "config": {"name": "frontier-b"}
  })");
  const ScenarioSpec changed_reordered = spec_from(R"({
    "seed": 3, "config": {"name": "frontier-b"}, "type": "simulate"
  })");
  EXPECT_EQ(scenario_cache_key(changed), scenario_cache_key(changed_reordered));
  EXPECT_NE(scenario_cache_key(changed).config_hash,
            scenario_cache_key(plain).config_hash);
  EXPECT_EQ(scenario_cache_key(changed).spec_hash,
            scenario_cache_key(plain).spec_hash);
}

TEST(ScenarioKeyTest, ConfigPathSpellingTheFrontierDescriptorHashesEqual) {
  const auto path = std::filesystem::temp_directory_path() / "exadigit_key_frontier.json";
  frontier_descriptor_json().save_file(path.string());
  ScenarioSpec from_file = spec_from(R"({"type": "simulate", "seed": 9})");
  from_file.config_path = path.string();
  const ScenarioSpec implicit = spec_from(R"({"type": "simulate", "seed": 9})");
  EXPECT_EQ(scenario_cache_key(from_file), scenario_cache_key(implicit));
  std::filesystem::remove(path);
}

TEST(ScenarioKeyTest, KeyStringIsStableHexPair) {
  const ScenarioKey key{0x1ULL, 0xabcdef0123456789ULL};
  EXPECT_EQ(key.to_string(), "spec:0000000000000001/config:abcdef0123456789");
}

TEST(ScenarioResultWireTest, RoundTripPreservesExportBytes) {
  ScenarioResult r;
  r.name = "wire";
  r.type = "simulate";
  r.status = ScenarioResult::Status::kDone;
  r.add_metric("pue", 1.0321);
  r.add_metric("energy_mwh", 417.25);
  r.add_metric("pue", 1.04);  // duplicates + order must survive the wire
  r.channels.emplace("power_mw",
                     TimeSeries({0.0, 60.0, 120.0}, {17.1, 17.3, 1.0 / 3.0}));
  r.channels.emplace("pue", TimeSeries({0.0, 120.0}, {1.03, 1.05}));
  r.text = "native rendering\nwith lines";

  const ScenarioResult back = ScenarioResult::from_wire_json(
      Json::parse(r.to_wire_json().dump()));
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.status, r.status);
  ASSERT_EQ(back.summary.size(), 3u);
  EXPECT_EQ(back.summary[2].name, "pue");
  EXPECT_EQ(back.summary[2].value, 1.04);
  EXPECT_EQ(back.text, r.text);
  // The reconstructed result must export byte-identically: summary JSON,
  // series CSV, and the wire form itself.
  EXPECT_EQ(back.to_json().dump(), r.to_json().dump());
  EXPECT_EQ(csv_text(back.series_csv()), csv_text(r.series_csv()));
  EXPECT_EQ(back.to_wire_json().dump(), r.to_wire_json().dump());
}

TEST(ScenarioResultWireTest, FailedResultCarriesErrorAcrossTheWire) {
  ScenarioResult r;
  r.name = "boom";
  r.type = "replay";
  r.status = ScenarioResult::Status::kFailed;
  r.error = "config error: dataset missing";
  const ScenarioResult back = ScenarioResult::from_wire_json(r.to_wire_json());
  EXPECT_EQ(back.status, ScenarioResult::Status::kFailed);
  EXPECT_EQ(back.error, r.error);
}

TEST(ScenarioResultWireTest, MalformedWireDocumentsThrow) {
  EXPECT_THROW(ScenarioResult::from_wire_json(Json::parse(
                   R"({"name": "x", "type": "t", "status": "nope",
                       "summary": [], "channels": {}})")),
               ConfigError);
  EXPECT_THROW(ScenarioResult::from_wire_json(Json::parse(
                   R"({"name": "x", "type": "t", "status": "done",
                       "summary": [],
                       "channels": {"c": {"times": [1], "values": []}}})")),
               ConfigError);
  EXPECT_THROW(ScenarioResult::from_wire_json(Json::parse(R"({"name": "x"})")),
               JsonTypeError);
}

}  // namespace
}  // namespace exadigit
