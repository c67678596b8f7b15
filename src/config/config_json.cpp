#include "config/config_json.hpp"

#include <concepts>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace exadigit {

Json curve_to_json(const PiecewiseLinearCurve& curve) {
  Json::Array arr;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    arr.push_back(Json(Json::Array{Json(curve.xs()[i]), Json(curve.ys()[i])}));
  }
  return Json(std::move(arr));
}

PiecewiseLinearCurve curve_from_json(const Json& j) {
  std::vector<double> xs, ys;
  for (const auto& knot : j.as_array()) {
    xs.push_back(knot.at(std::size_t{0}).as_number());
    ys.push_back(knot.at(std::size_t{1}).as_number());
  }
  return PiecewiseLinearCurve(std::move(xs), std::move(ys));
}

namespace {

// Accepted scheduler policy names. An ordered set so error messages and
// known_scheduler_policy_names() list names deterministically.
std::mutex& policy_names_mutex() {
  static std::mutex m;
  return m;
}

std::set<std::string>& policy_names_locked() {
  static std::set<std::string> names{"fcfs", "sjf", "easy_backfill", "priority", "power_capped",
                                     "price_aware"};
  return names;
}

}  // namespace

std::vector<std::string> known_scheduler_policy_names() {
  std::lock_guard<std::mutex> lock(policy_names_mutex());
  const auto& names = policy_names_locked();
  return std::vector<std::string>(names.begin(), names.end());
}

void register_scheduler_policy_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(policy_names_mutex());
  policy_names_locked().insert(name);
}

void require_scheduler_policy_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(policy_names_mutex());
  const auto& names = policy_names_locked();
  if (names.count(name) != 0) return;
  std::string msg = "unknown scheduler policy \"" + name + "\"; valid policies are: ";
  bool first = true;
  for (const auto& n : names) {
    if (!first) msg += ", ";
    msg += "\"" + n + "\"";
    first = false;
  }
  throw ConfigError(msg);
}

namespace {

// One field list per descriptor struct: each `fields` overload names every
// JSON key of its struct once, beside the member it maps to. The member's
// type says how the key is spelled (a number, an int, a string, a curve, a
// Json block, or a nested struct with its own list); an enum passes its
// name table, and the scheduler policy its name check. Writer and Reader
// are the two walks over these lists.

/// Matches S and const S, so one list serves the writer and the reader.
template <class T, class S>
concept Of = std::same_as<std::remove_const_t<T>, S>;

/// The JSON spelling of one enumerator.
template <class E>
struct Named {
  E value;
  const char* name;
};

constexpr Named<LoadSharingPolicy> kLoadSharingNames[] = {
    {LoadSharingPolicy::kSharedBus, "shared_bus"},
    {LoadSharingPolicy::kSmartStaging, "smart_staging"}};

constexpr Named<PowerFeed> kFeedNames[] = {{PowerFeed::kAC, "ac"}, {PowerFeed::kDC380, "dc380"}};

void fields(auto& f, Of<NodeConfig> auto& n) {
  f("cpus_per_node", n.cpus_per_node);
  f("gpus_per_node", n.gpus_per_node);
  f("nics_per_node", n.nics_per_node);
  f("nvme_per_node", n.nvme_per_node);
  f("cpu_idle_w", n.cpu_idle_w);
  f("cpu_peak_w", n.cpu_peak_w);
  f("gpu_idle_w", n.gpu_idle_w);
  f("gpu_peak_w", n.gpu_peak_w);
  f("ram_avg_w", n.ram_avg_w);
  f("nic_w", n.nic_w);
  f("nvme_w", n.nvme_w);
}

void fields(auto& f, Of<RackConfig> auto& r) {
  f("chassis_per_rack", r.chassis_per_rack);
  f("rectifiers_per_rack", r.rectifiers_per_rack);
  f("blades_per_rack", r.blades_per_rack);
  f("nodes_per_rack", r.nodes_per_rack);
  f("sivocs_per_rack", r.sivocs_per_rack);
  f("switches_per_rack", r.switches_per_rack);
  f("switch_avg_w", r.switch_avg_w);
}

void fields(auto& f, Of<PowerChainConfig> auto& p) {
  f("rectifier_efficiency", p.rectifier_efficiency);
  f("sivoc_efficiency", p.sivoc_efficiency);
  f("rectifier_rated_w", p.rectifier_rated_w);
  f("sivoc_rated_w", p.sivoc_rated_w);
  f("rectifiers_per_group", p.rectifiers_per_group);
  f("blades_per_group", p.blades_per_group);
  f("load_sharing", p.load_sharing, kLoadSharingNames);
  f("feed", p.feed, kFeedNames);
  f("dc_feed_efficiency", p.dc_feed_efficiency);
}

void fields(auto& f, Of<SchedulerConfig> auto& s) {
  f("policy", s.policy, require_scheduler_policy_name);
  f("params", s.policy_params);
  f("max_queue_depth", s.max_queue_depth);
}

void fields(auto& f, Of<WorkloadConfig> auto& w) {
  f("mean_arrival_s", w.mean_arrival_s);
  f("mean_nodes", w.mean_nodes);
  f("std_nodes", w.std_nodes);
  f("mean_walltime_s", w.mean_walltime_s);
  f("std_walltime_s", w.std_walltime_s);
  f("mean_cpu_util", w.mean_cpu_util);
  f("std_cpu_util", w.std_cpu_util);
  f("mean_gpu_util", w.mean_gpu_util);
  f("std_gpu_util", w.std_gpu_util);
}

void fields(auto& f, Of<EconomicsConfig> auto& e) {
  f("electricity_usd_per_kwh", e.electricity_usd_per_kwh);
  f("emission_lbs_per_mwh", e.emission_lbs_per_mwh);
}

void fields(auto& f, Of<PumpConfig> auto& p) {
  f("design_flow_m3s", p.design_flow_m3s);
  f("design_head_pa", p.design_head_pa);
  f("shutoff_head_pa", p.shutoff_head_pa);
  f("rated_power_w", p.rated_power_w);
  f("efficiency", p.efficiency);
  f("min_speed", p.min_speed);
}

void fields(auto& f, Of<CduLoopConfig> auto& c) {
  f("pump_avg_w", c.pump_avg_w);
  f("pump", c.pump);
  f("secondary_volume_m3", c.secondary_volume_m3);
  f("secondary_design_flow_m3s", c.secondary_design_flow_m3s);
  f("secondary_design_dp_pa", c.secondary_design_dp_pa);
  f("hex_ua_w_per_k", c.hex.ua_w_per_k);
  f("supply_setpoint_c", c.supply_setpoint_c);
  f("loop_dp_setpoint_pa", c.loop_dp_setpoint_pa);
  f("rack_branch_dp_pa", c.rack_branch_dp_pa);
}

void fields(auto& f, Of<PrimaryLoopConfig> auto& p) {
  f("pump_count", p.pump_count);
  f("pump", p.pump);
  f("ehx_count", p.ehx_count);
  f("ehx_ua_w_per_k", p.ehx.ua_w_per_k);
  f("volume_m3", p.volume_m3);
  f("design_flow_m3s", p.design_flow_m3s);
  f("htws_setpoint_c", p.htws_setpoint_c);
  f("dp_setpoint_pa", p.dp_setpoint_pa);
  f("stage_up_speed", p.stage_up_speed);
  f("stage_down_speed", p.stage_down_speed);
  f("stage_min_interval_s", p.stage_min_interval_s);
}

void fields(auto& f, Of<CoolingTowerConfig> auto& t) {
  f("tower_count", t.tower_count);
  f("cells_per_tower", t.cells_per_tower);
  f("fan_rated_w", t.fan_rated_w);
  f("design_approach_k", t.design_approach_k);
  f("effectiveness", t.effectiveness);
}

void fields(auto& f, Of<CtLoopConfig> auto& c) {
  f("pump_count", c.pump_count);
  f("pump", c.pump);
  f("tower", c.tower);
  f("volume_m3", c.volume_m3);
  f("design_flow_m3s", c.design_flow_m3s);
  f("header_pressure_setpoint_pa", c.header_pressure_setpoint_pa);
  f("stage_up_speed", c.stage_up_speed);
  f("stage_down_speed", c.stage_down_speed);
  f("stage_min_interval_s", c.stage_min_interval_s);
  f("ct_stage_temp_band_k", c.ct_stage_temp_band_k);
  f("ct_stage_min_interval_s", c.ct_stage_min_interval_s);
}

void fields(auto& f, Of<CoolingConfig> auto& c) {
  f("cdu", c.cdu);
  f("primary", c.primary);
  f("ct", c.ct);
  f("cooling_efficiency", c.cooling_efficiency);
  f("staging_delay_s", c.staging_delay_s);
  f("thermal_substep_s", c.thermal_substep_s);
}

void fields(auto& f, Of<SimulationConfig> auto& s) {
  f("tick_s", s.tick_s);
  f("cooling_quantum_s", s.cooling_quantum_s);
  f("trace_quantum_s", s.trace_quantum_s);
}

void fields(auto& f, Of<PartitionConfig> auto& p) {
  f("name", p.name);
  f("node_count", p.node_count);
  f("node", p.node);
}

void fields(auto& f, Of<SystemConfig> auto& c) {
  f("name", c.name);
  f("cdu_count", c.cdu_count);
  f("racks_per_cdu", c.racks_per_cdu);
  f("rack_count", c.rack_count);
  f("node", c.node);
  f("rack", c.rack);
  f("power", c.power);
  f("scheduler", c.scheduler);
  f("workload", c.workload);
  f("economics", c.economics);
  f("cooling", c.cooling);
  f("simulation", c.simulation);
  // Listed after the node block: each partition's node starts from the parsed one.
  f("partitions", c.partitions, c.node);
}

/// Emits every field of a list.
struct Writer {
  Json& out;

  template <class S>
  static Json object(const S& s) {
    Json j{Json::Object{}};
    Writer w{j};
    fields(w, s);
    return j;
  }

  void operator()(const char* key, double v) { out[key] = Json(v); }
  void operator()(const char* key, int v) { out[key] = Json(v); }
  void operator()(const char* key, const std::string& v,
                  void (*)(const std::string&) = nullptr) {
    out[key] = Json(v);
  }
  void operator()(const char* key, const PiecewiseLinearCurve& v) { out[key] = curve_to_json(v); }
  /// Null means the policy's defaults and is left out, so a descriptor
  /// without params keeps its bytes.
  void operator()(const char* key, const Json& v) {
    if (!v.is_null()) out[key] = v;
  }
  template <class E, std::size_t N>
  void operator()(const char* key, E v, const Named<E> (&names)[N]) {
    for (const Named<E>& n : names) {
      if (n.value == v) out[key] = Json(n.name);
    }
  }
  void operator()(const char* key, const std::vector<PartitionConfig>& parts,
                  const NodeConfig&) {
    if (parts.empty()) return;
    Json::Array arr;
    for (const PartitionConfig& p : parts) arr.push_back(object(p));
    out[key] = Json(std::move(arr));
  }
  template <class S>
  void operator()(const char* key, const S& nested) {
    out[key] = object(nested);
  }
};

/// Overwrites a field only when its key is present; every other field
/// keeps the value it started with. Keys no list names are ignored.
struct Reader {
  const Json& in;
  std::string where;  ///< dotted path of `in`, for error messages

  /// Sets `v` to convert(in[key]) when the key is present. A value of the
  /// wrong JSON type is a ConfigError naming the key.
  template <class T, class Convert>
  void read(const char* key, T& v, Convert convert) const {
    if (!in.contains(key)) return;
    try {
      v = convert(in.at(key));
    } catch (const JsonTypeError& e) {
      throw ConfigError(where + key + ": " + e.what());
    }
  }

  void operator()(const char* key, double& v) const {
    read(key, v, [](const Json& j) { return j.as_number(); });
  }
  /// The descriptor's one integer reader: Json::int32_or refuses what int
  /// cannot hold rather than wrapping it.
  void operator()(const char* key, int& v) const {
    read(key, v, [&](const Json&) { return in.int32_or(key, v); });
  }
  void operator()(const char* key, std::string& v,
                  void (*check)(const std::string&) = nullptr) const {
    read(key, v, [check](const Json& j) {
      if (check != nullptr) check(j.as_string());
      return j.as_string();
    });
  }
  /// A curve is replaced whole, never merged knot by knot.
  void operator()(const char* key, PiecewiseLinearCurve& v) const {
    read(key, v, curve_from_json);
  }
  void operator()(const char* key, Json& v) const {
    read(key, v, [](const Json& j) { return j; });
  }
  template <class E, std::size_t N>
  void operator()(const char* key, E& v, const Named<E> (&names)[N]) const {
    read(key, v, [&](const Json& j) {
      for (const Named<E>& n : names) {
        if (j.as_string() == n.name) return n.value;
      }
      throw ConfigError("unknown " + std::string(key) + ": " + j.as_string());
    });
  }
  void operator()(const char* key, std::vector<PartitionConfig>& parts,
                  const NodeConfig& inherited) const {
    read(key, parts, [&](const Json& j) {
      std::vector<PartitionConfig> out(j.as_array().size(), PartitionConfig{.node = inherited});
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Reader r{j.as_array()[i], where + key + "[" + std::to_string(i) + "]."};
        fields(r, out[i]);
      }
      return out;
    });
  }
  template <class S>
  void operator()(const char* key, S& nested) const {
    if (!in.contains(key)) return;
    const Reader r{in.at(key), where + key + "."};
    fields(r, nested);
  }
};

}  // namespace

Json system_config_to_json(const SystemConfig& config) { return Writer::object(config); }

SystemConfig system_config_from_json(const Json& j) {
  SystemConfig c = frontier_system_config();
  const Reader reader{j, ""};
  fields(reader, c);
  c.validate();
  return c;
}

const Json& frontier_descriptor_json() {
  // Magic-static: built on first use, thread-safe, immutable afterwards.
  static const Json descriptor = system_config_to_json(frontier_system_config());
  return descriptor;
}

}  // namespace exadigit
