#include "config/config_json.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace exadigit {
namespace {

TEST(ConfigJsonTest, CurveRoundTrip) {
  const PiecewiseLinearCurve c{{0.0, 0.88}, {7500.0, 0.963}, {12500.0, 0.952}};
  const PiecewiseLinearCurve back = curve_from_json(curve_to_json(c));
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.xs()[i], c.xs()[i]);
    EXPECT_DOUBLE_EQ(back.ys()[i], c.ys()[i]);
  }
}

TEST(ConfigJsonTest, FrontierRoundTripIsLossless) {
  const SystemConfig original = frontier_system_config();
  const Json j = system_config_to_json(original);
  const SystemConfig back = system_config_from_json(j);

  EXPECT_EQ(back.name, original.name);
  EXPECT_EQ(back.cdu_count, original.cdu_count);
  EXPECT_EQ(back.rack_count, original.rack_count);
  EXPECT_DOUBLE_EQ(back.node.gpu_peak_w, original.node.gpu_peak_w);
  EXPECT_DOUBLE_EQ(back.rack.switch_avg_w, original.rack.switch_avg_w);
  EXPECT_EQ(back.power.rectifiers_per_group, original.power.rectifiers_per_group);
  EXPECT_EQ(back.power.load_sharing, original.power.load_sharing);
  EXPECT_EQ(back.power.feed, original.power.feed);
  EXPECT_DOUBLE_EQ(back.power.dc_feed_efficiency, original.power.dc_feed_efficiency);
  EXPECT_DOUBLE_EQ(back.economics.electricity_usd_per_kwh,
                   original.economics.electricity_usd_per_kwh);
  EXPECT_DOUBLE_EQ(back.cooling.cdu.hex.ua_w_per_k, original.cooling.cdu.hex.ua_w_per_k);
  EXPECT_DOUBLE_EQ(back.cooling.primary.htws_setpoint_c,
                   original.cooling.primary.htws_setpoint_c);
  EXPECT_DOUBLE_EQ(back.cooling.ct.pump.design_head_pa,
                   original.cooling.ct.pump.design_head_pa);
  EXPECT_DOUBLE_EQ(back.cooling.ct.tower.fan_rated_w, original.cooling.ct.tower.fan_rated_w);
  EXPECT_EQ(back.scheduler.policy, original.scheduler.policy);
  EXPECT_DOUBLE_EQ(back.workload.mean_arrival_s, original.workload.mean_arrival_s);
  EXPECT_DOUBLE_EQ(back.simulation.cooling_quantum_s, original.simulation.cooling_quantum_s);
  // Efficiency curves must survive exactly (calibration data).
  for (double x : {0.0, 2500.0, 7500.0, 11500.0}) {
    EXPECT_DOUBLE_EQ(back.power.rectifier_efficiency(x),
                     original.power.rectifier_efficiency(x));
  }
}

TEST(ConfigJsonTest, EngineModeRoundTripAndValidation) {
  SystemConfig original = frontier_system_config();
  original.simulation.engine = EngineMode::kTickLoop;
  const SystemConfig back = system_config_from_json(system_config_to_json(original));
  EXPECT_EQ(back.simulation.engine, EngineMode::kTickLoop);

  const Json event = Json::parse(R"({"simulation": {"engine": "event"}})");
  EXPECT_EQ(system_config_from_json(event).simulation.engine, EngineMode::kEventDriven);
  // Absent field keeps the event-driven default.
  const Json empty = Json::parse(R"({})");
  EXPECT_EQ(system_config_from_json(empty).simulation.engine, EngineMode::kEventDriven);
  const Json bad = Json::parse(R"({"simulation": {"engine": "warp"}})");
  EXPECT_THROW(system_config_from_json(bad), ConfigError);
}

TEST(ConfigJsonTest, HydraulicsEvalRoundTripAndValidation) {
  SystemConfig original = frontier_system_config();
  original.cooling.hydraulics = HydraulicsEval::kAlwaysSolve;
  const SystemConfig back = system_config_from_json(system_config_to_json(original));
  EXPECT_EQ(back.cooling.hydraulics, HydraulicsEval::kAlwaysSolve);

  const Json dedup = Json::parse(R"({"cooling": {"hydraulics": "dedup"}})");
  EXPECT_EQ(system_config_from_json(dedup).cooling.hydraulics, HydraulicsEval::kDedup);
  // Absent field keeps the dedup default.
  const Json empty = Json::parse(R"({})");
  EXPECT_EQ(system_config_from_json(empty).cooling.hydraulics, HydraulicsEval::kDedup);
  const Json bad = Json::parse(R"({"cooling": {"hydraulics": "sometimes"}})");
  EXPECT_THROW(system_config_from_json(bad), ConfigError);
}

TEST(ConfigJsonTest, ThermalEvalRoundTripAndValidation) {
  SystemConfig original = frontier_system_config();
  original.cooling.thermal = ThermalEval::kScalar;
  const SystemConfig back = system_config_from_json(system_config_to_json(original));
  EXPECT_EQ(back.cooling.thermal, ThermalEval::kScalar);

  const Json batched = Json::parse(R"({"cooling": {"thermal": "batched"}})");
  EXPECT_EQ(system_config_from_json(batched).cooling.thermal, ThermalEval::kBatched);
  // Absent field keeps the batched default.
  const Json empty = Json::parse(R"({})");
  EXPECT_EQ(system_config_from_json(empty).cooling.thermal, ThermalEval::kBatched);
  const Json bad = Json::parse(R"({"cooling": {"thermal": "vectorish"}})");
  EXPECT_THROW(system_config_from_json(bad), ConfigError);
}

TEST(ConfigJsonTest, MultiPartitionRoundTrip) {
  const SystemConfig original = setonix_like_config();
  const SystemConfig back = system_config_from_json(system_config_to_json(original));
  ASSERT_EQ(back.partitions.size(), 2u);
  EXPECT_EQ(back.partitions[0].name, "work");
  EXPECT_EQ(back.partitions[0].node_count, original.partitions[0].node_count);
  EXPECT_EQ(back.partitions[0].node.gpus_per_node, 0);
}

TEST(ConfigJsonTest, MissingFieldsTakeFrontierDefaults) {
  const Json j = Json::parse(R"({"name": "minimal", "rack_count": 6, "cdu_count": 2})");
  const SystemConfig c = system_config_from_json(j);
  EXPECT_EQ(c.name, "minimal");
  EXPECT_EQ(c.rack_count, 6);
  EXPECT_EQ(c.cdu_count, 2);
  // Defaults inherited from Frontier.
  EXPECT_DOUBLE_EQ(c.node.gpu_peak_w, 560.0);
  EXPECT_EQ(c.rack.nodes_per_rack, 128);
}

TEST(ConfigJsonTest, SchedulerPolicyNames) {
  // Legacy names stay parseable, and the new built-ins are accepted.
  for (const char* name : {"fcfs", "sjf", "easy_backfill", "priority", "power_capped"}) {
    Json j;
    j["scheduler"]["policy"] = Json(name);
    EXPECT_NO_THROW(system_config_from_json(j));
    EXPECT_EQ(system_config_from_json(j).scheduler.policy, name);
  }
  Json bad;
  bad["scheduler"]["policy"] = Json("lottery");
  EXPECT_THROW(system_config_from_json(bad), ConfigError);
}

TEST(ConfigJsonTest, UnknownSchedulerPolicyErrorListsValidNames) {
  Json bad;
  bad["scheduler"]["policy"] = Json("lottery");
  try {
    system_config_from_json(bad);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lottery"), std::string::npos) << what;
    for (const char* name :
         {"fcfs", "sjf", "easy_backfill", "priority", "power_capped"}) {
      EXPECT_NE(what.find(name), std::string::npos) << "missing " << name << ": " << what;
    }
  }
}

TEST(ConfigJsonTest, SchedulerPolicyParamsRoundTrip) {
  SystemConfig original = frontier_system_config();
  original.scheduler.policy = "power_capped";
  original.scheduler.policy_params["cap_mw"] = Json(25.0);
  const Json j = system_config_to_json(original);
  EXPECT_TRUE(j.at("scheduler").contains("params"));
  const SystemConfig back = system_config_from_json(j);
  EXPECT_EQ(back.scheduler.policy, "power_capped");
  ASSERT_TRUE(back.scheduler.policy_params.is_object());
  EXPECT_DOUBLE_EQ(back.scheduler.policy_params.at("cap_mw").as_number(), 25.0);
  // A second round trip is byte-stable (content-addressed caching relies
  // on canonical serialization).
  EXPECT_EQ(system_config_to_json(back).dump(), j.dump());

  // No params => no "params" key (keeps legacy documents byte-identical).
  const Json plain = system_config_to_json(frontier_system_config());
  EXPECT_FALSE(plain.at("scheduler").contains("params"));
}

TEST(ConfigJsonTest, BadEnumValuesThrow) {
  Json j;
  j["power"]["feed"] = Json("ac48");
  EXPECT_THROW(system_config_from_json(j), ConfigError);
  Json j2;
  j2["power"]["load_sharing"] = Json("round_robin");
  EXPECT_THROW(system_config_from_json(j2), ConfigError);
}

TEST(ConfigJsonTest, InvalidDescriptorFailsValidation) {
  Json j;
  j["rack_count"] = Json(100);  // exceeds 25 * 3 CDU positions
  EXPECT_THROW(system_config_from_json(j), ConfigError);
}

TEST(ConfigJsonTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "exadigit_config_test.json").string();
  system_config_to_json(frontier_system_config()).save_file(path);
  const SystemConfig c = system_config_from_json(Json::load_file(path));
  EXPECT_EQ(c.total_nodes(), 9472);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace exadigit
