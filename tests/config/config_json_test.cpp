#include "config/config_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/stable_hash.hpp"

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

/// The evaluation-strategy keys older descriptors carried (simulation.engine,
/// cooling.hydraulics, cooling.thermal) are not part of the descriptor: like
/// any unknown key they are ignored, whatever their value.
TEST(ConfigJsonTest, RetiredEvaluationKeysAreIgnored) {
  const Json stale = Json::parse(R"({
    "simulation": {"engine": "tick", "tick_s": 1.0},
    "cooling": {"hydraulics": "always_solve", "thermal": "vectorish"}
  })");
  const Json plain = Json::parse(R"({"simulation": {"tick_s": 1.0}, "cooling": {}})");
  EXPECT_EQ(system_config_to_json(system_config_from_json(stale)).dump(),
            system_config_to_json(system_config_from_json(plain)).dump());
  const Json out = system_config_to_json(frontier_system_config());
  EXPECT_FALSE(out.at("simulation").contains("engine"));
  EXPECT_FALSE(out.at("cooling").contains("hydraulics"));
  EXPECT_FALSE(out.at("cooling").contains("thermal"));
}

/// The canonical Frontier descriptor, byte for byte: the FNV-1a 64 digest
/// of its dump. The pinned value is the digest of the descriptor as it was
/// while it still carried cooling.step_s, with that one member deleted, so
/// retiring the key removed it and changed nothing else.
TEST(ConfigJsonTest, FrontierDescriptorDigest) {
  const std::string dump = frontier_descriptor_json().dump();
  EXPECT_EQ(fnv1a64(dump), 0x78f30d073874ed41ULL) << dump;
  EXPECT_FALSE(frontier_descriptor_json().at("cooling").contains("step_s"));
}

/// cooling.step_s was a second exchange quantum beside
/// simulation.cooling_quantum_s; every plant caller now steps at the latter.
/// A descriptor that still carries the key loads as if it did not, whatever
/// the value.
TEST(ConfigJsonTest, StaleCoolingStepKeyIsIgnored) {
  const std::string plain_dump =
      system_config_to_json(system_config_from_json(Json::parse(R"({"cooling": {}})"))).dump();
  for (const Json& value : {Json(15.0), Json(60.0), Json(0.0), Json(-3.0), Json("fast")}) {
    Json stale = Json::parse(R"({"cooling": {}})");
    stale["cooling"]["step_s"] = value;
    EXPECT_EQ(system_config_to_json(system_config_from_json(stale)).dump(), plain_dump)
        << value.dump();
  }
}

/// A thermal substep longer than the exchange quantum, or not positive, is
/// refused by name.
TEST(ConfigJsonTest, ThermalSubstepMustLieWithinTheCoolingQuantum) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad[] = {
      {0.0, 15.0}, {-3.0, 15.0}, {15.5, 15.0}, {nan, 15.0}, {61.0, 60.0}, {3.0, 2.0}};
  for (const auto& [substep, quantum] : bad) {
    Json j;
    j["cooling"]["thermal_substep_s"] = Json(substep);
    j["simulation"]["cooling_quantum_s"] = Json(quantum);
    try {
      (void)system_config_from_json(j);
      ADD_FAILURE() << "substep " << substep << " s accepted at quantum " << quantum << " s";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("thermal_substep_s"), std::string::npos) << e.what();
    }
  }
  for (const auto& [substep, quantum] :
       {std::pair{15.0, 15.0}, std::pair{60.0, 60.0}, std::pair{0.1875, 15.0}}) {
    Json j;
    j["cooling"]["thermal_substep_s"] = Json(substep);
    j["simulation"]["cooling_quantum_s"] = Json(quantum);
    EXPECT_NO_THROW((void)system_config_from_json(j)) << substep << " / " << quantum;
  }
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
  for (const char* name :
       {"fcfs", "sjf", "easy_backfill", "priority", "power_capped", "price_aware"}) {
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
         {"fcfs", "sjf", "easy_backfill", "priority", "power_capped", "price_aware"}) {
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

/// An integer key takes what int holds and refuses the rest by name; it
/// never wraps a value modulo 2^32 into a valid-looking descriptor. A leaf
/// of the wrong JSON type is refused by name too.
TEST(ConfigJsonTest, BadLeavesAreRefusedByKey) {
  const std::pair<const char*, const char*> refused[] = {
      {R"({"cdu_count": 4294967321})", "cdu_count"},  // wrapped to 25
      {R"({"cooling": {"primary": {"pump_count": 4294967300}}})",
       "cooling.primary.pump_count"},  // wrapped to 4
      {R"({"rack": {"nodes_per_rack": 4294967424}})", "rack.nodes_per_rack"},  // to 128
      {R"({"scheduler": {"max_queue_depth": 2147483648}})", "scheduler.max_queue_depth"},
      {R"({"scheduler": {"max_queue_depth": -2147483649}})", "scheduler.max_queue_depth"},
      {R"({"partitions": [{"name": "p", "node_count": 4294967297}]})",
       "partitions[0].node_count"},
      {R"({"cdu_count": 2.5})", "cdu_count"},
      {R"({"cooling": {"primary": {"volume_m3": "40"}}})", "cooling.primary.volume_m3"},
      {R"({"power": {"feed": 380}})", "power.feed"},
      {R"({"partitions": {"name": "p"}})", "partitions"},
  };
  for (const auto& [text, key] : refused) {
    try {
      (void)system_config_from_json(Json::parse(text));
      ADD_FAILURE() << text << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  for (const char* text : {R"({"scheduler": {"max_queue_depth": 2147483647}})",
                           R"({"scheduler": {"max_queue_depth": -2147483648}})"}) {
    EXPECT_NO_THROW((void)system_config_from_json(Json::parse(text))) << text;
  }
}

/// Object keys and array indices from a document's root to one leaf.
using LeafPath = std::vector<std::variant<std::string, std::size_t>>;

void collect_leaves(const Json& j, LeafPath& path, std::vector<LeafPath>& out) {
  if (j.is_object()) {
    for (const auto& [key, value] : j.as_object()) {
      path.emplace_back(key);
      collect_leaves(value, path, out);
      path.pop_back();
    }
  } else if (j.is_array()) {
    for (std::size_t i = 0; i < j.as_array().size(); ++i) {
      path.emplace_back(i);
      collect_leaves(j.as_array()[i], path, out);
      path.pop_back();
    }
  } else {
    out.push_back(path);
  }
}

Json& leaf_at(Json& doc, const LeafPath& path) {
  Json* j = &doc;
  for (const auto& step : path) {
    j = std::holds_alternative<std::string>(step)
            ? &j->as_object().at(std::get<std::string>(step))
            : &j->as_array().at(std::get<std::size_t>(step));
  }
  return *j;
}

std::string leaf_name(const LeafPath& path) {
  std::string name;
  for (const auto& step : path) {
    if (const auto* key = std::get_if<std::string>(&step)) {
      name.append(".").append(*key);
    } else {
      name.append("[").append(std::to_string(std::get<std::size_t>(step))).append("]");
    }
  }
  return name;
}

/// A leaf's changed value: a named value becomes another name it may take,
/// a curve knot moves by less than the knot spacing (so it passes no other
/// knot), and an integral number elsewhere stays integral.
Json changed_leaf(const Json& leaf, bool in_curve) {
  static const std::map<std::string, std::string> other_name = {
      {"shared_bus", "smart_staging"}, {"ac", "dc380"}, {"fcfs", "sjf"}};
  if (leaf.is_bool()) return Json(!leaf.as_bool());
  if (leaf.is_string()) {
    const auto it = other_name.find(leaf.as_string());
    return Json(it != other_name.end() ? it->second : leaf.as_string() + "-changed");
  }
  const double v = leaf.as_number();
  return Json(!in_curve && v == std::floor(v) ? v + 1.0 : v + 0x1p-10);
}

/// Every number, string and bool leaf of the Frontier and Setonix-like
/// descriptors, curve knots included, changed alone, must survive the
/// reader and come back out of the writer, with nothing else changed. The
/// leaf and skip counts pin the key set: a key either direction drops
/// fails here.
TEST(ConfigJsonTest, EveryLeafSurvivesARoundTrip) {
  int checked = 0;
  int skipped = 0;
  for (const SystemConfig& config : {frontier_system_config(), setonix_like_config()}) {
    const Json doc = system_config_to_json(config);
    std::vector<LeafPath> leaves;
    LeafPath root;
    collect_leaves(doc, root, leaves);
    for (const LeafPath& path : leaves) {
      Json edited = doc;
      Json& leaf = leaf_at(edited, path);
      leaf = changed_leaf(leaf, std::holds_alternative<std::size_t>(path.back()));
      try {
        EXPECT_EQ(system_config_to_json(system_config_from_json(edited)).dump(), edited.dump())
            << config.name << leaf_name(path);
        ++checked;
      } catch (const ConfigError&) {
        ++skipped;  // validate() refuses the changed value
      }
    }
  }
  // Frontier has 139 leaves (42 of them curve knot coordinates); one more
  // rectifiers_per_rack, blades_per_rack, nodes_per_rack or
  // rectifiers_per_group fails validation. Setonix-like adds two partitions
  // of 13 leaves each, and also refuses a 13th rack and either partition
  // growing past the machine's 1,536 nodes.
  EXPECT_EQ(checked, 139 - 4 + 165 - 7);
  EXPECT_EQ(skipped, 4 + 7);
}

TEST(ConfigJsonTest, InvalidDescriptorFailsValidation) {
  Json j;
  j["rack_count"] = Json(100);  // exceeds 25 * 3 CDU positions
  EXPECT_THROW(system_config_from_json(j), ConfigError);
}

TEST(ConfigJsonTest, NonPositiveTraceQuantumFailsValidation) {
  for (const double bad : {0.0, -15.0}) {
    Json j;
    j["simulation"]["trace_quantum_s"] = Json(bad);
    EXPECT_THROW(system_config_from_json(j), ConfigError) << bad;
  }
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
