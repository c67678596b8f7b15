#include "config/config_json.hpp"

#include <mutex>
#include <set>

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

Json node_to_json(const NodeConfig& n) {
  Json j;
  j["cpus_per_node"] = Json(n.cpus_per_node);
  j["gpus_per_node"] = Json(n.gpus_per_node);
  j["nics_per_node"] = Json(n.nics_per_node);
  j["nvme_per_node"] = Json(n.nvme_per_node);
  j["cpu_idle_w"] = Json(n.cpu_idle_w);
  j["cpu_peak_w"] = Json(n.cpu_peak_w);
  j["gpu_idle_w"] = Json(n.gpu_idle_w);
  j["gpu_peak_w"] = Json(n.gpu_peak_w);
  j["ram_avg_w"] = Json(n.ram_avg_w);
  j["nic_w"] = Json(n.nic_w);
  j["nvme_w"] = Json(n.nvme_w);
  return j;
}

NodeConfig node_from_json(const Json& j, const NodeConfig& defaults = {}) {
  NodeConfig n = defaults;
  n.cpus_per_node = static_cast<int>(j.int_or("cpus_per_node", n.cpus_per_node));
  n.gpus_per_node = static_cast<int>(j.int_or("gpus_per_node", n.gpus_per_node));
  n.nics_per_node = static_cast<int>(j.int_or("nics_per_node", n.nics_per_node));
  n.nvme_per_node = static_cast<int>(j.int_or("nvme_per_node", n.nvme_per_node));
  n.cpu_idle_w = j.number_or("cpu_idle_w", n.cpu_idle_w);
  n.cpu_peak_w = j.number_or("cpu_peak_w", n.cpu_peak_w);
  n.gpu_idle_w = j.number_or("gpu_idle_w", n.gpu_idle_w);
  n.gpu_peak_w = j.number_or("gpu_peak_w", n.gpu_peak_w);
  n.ram_avg_w = j.number_or("ram_avg_w", n.ram_avg_w);
  n.nic_w = j.number_or("nic_w", n.nic_w);
  n.nvme_w = j.number_or("nvme_w", n.nvme_w);
  return n;
}

Json rack_to_json(const RackConfig& r) {
  Json j;
  j["chassis_per_rack"] = Json(r.chassis_per_rack);
  j["rectifiers_per_rack"] = Json(r.rectifiers_per_rack);
  j["blades_per_rack"] = Json(r.blades_per_rack);
  j["nodes_per_rack"] = Json(r.nodes_per_rack);
  j["sivocs_per_rack"] = Json(r.sivocs_per_rack);
  j["switches_per_rack"] = Json(r.switches_per_rack);
  j["switch_avg_w"] = Json(r.switch_avg_w);
  return j;
}

RackConfig rack_from_json(const Json& j, const RackConfig& d = {}) {
  RackConfig r = d;
  r.chassis_per_rack = static_cast<int>(j.int_or("chassis_per_rack", r.chassis_per_rack));
  r.rectifiers_per_rack =
      static_cast<int>(j.int_or("rectifiers_per_rack", r.rectifiers_per_rack));
  r.blades_per_rack = static_cast<int>(j.int_or("blades_per_rack", r.blades_per_rack));
  r.nodes_per_rack = static_cast<int>(j.int_or("nodes_per_rack", r.nodes_per_rack));
  r.sivocs_per_rack = static_cast<int>(j.int_or("sivocs_per_rack", r.sivocs_per_rack));
  r.switches_per_rack = static_cast<int>(j.int_or("switches_per_rack", r.switches_per_rack));
  r.switch_avg_w = j.number_or("switch_avg_w", r.switch_avg_w);
  return r;
}

Json power_to_json(const PowerChainConfig& p) {
  Json j;
  j["rectifier_efficiency"] = curve_to_json(p.rectifier_efficiency);
  j["sivoc_efficiency"] = curve_to_json(p.sivoc_efficiency);
  j["rectifier_rated_w"] = Json(p.rectifier_rated_w);
  j["sivoc_rated_w"] = Json(p.sivoc_rated_w);
  j["rectifiers_per_group"] = Json(p.rectifiers_per_group);
  j["blades_per_group"] = Json(p.blades_per_group);
  j["load_sharing"] =
      Json(p.load_sharing == LoadSharingPolicy::kSmartStaging ? "smart_staging" : "shared_bus");
  j["feed"] = Json(p.feed == PowerFeed::kDC380 ? "dc380" : "ac");
  j["dc_feed_efficiency"] = Json(p.dc_feed_efficiency);
  return j;
}

PowerChainConfig power_from_json(const Json& j, const PowerChainConfig& d) {
  PowerChainConfig p = d;
  if (j.contains("rectifier_efficiency")) {
    p.rectifier_efficiency = curve_from_json(j.at("rectifier_efficiency"));
  }
  if (j.contains("sivoc_efficiency")) {
    p.sivoc_efficiency = curve_from_json(j.at("sivoc_efficiency"));
  }
  p.rectifier_rated_w = j.number_or("rectifier_rated_w", p.rectifier_rated_w);
  p.sivoc_rated_w = j.number_or("sivoc_rated_w", p.sivoc_rated_w);
  p.rectifiers_per_group =
      static_cast<int>(j.int_or("rectifiers_per_group", p.rectifiers_per_group));
  p.blades_per_group = static_cast<int>(j.int_or("blades_per_group", p.blades_per_group));
  const std::string sharing = j.string_or("load_sharing", "");
  if (sharing == "smart_staging") p.load_sharing = LoadSharingPolicy::kSmartStaging;
  else if (sharing == "shared_bus") p.load_sharing = LoadSharingPolicy::kSharedBus;
  else if (!sharing.empty()) throw ConfigError("unknown load_sharing: " + sharing);
  const std::string feed = j.string_or("feed", "");
  if (feed == "dc380") p.feed = PowerFeed::kDC380;
  else if (feed == "ac") p.feed = PowerFeed::kAC;
  else if (!feed.empty()) throw ConfigError("unknown feed: " + feed);
  p.dc_feed_efficiency = j.number_or("dc_feed_efficiency", p.dc_feed_efficiency);
  return p;
}

Json pump_to_json(const PumpConfig& p) {
  Json j;
  j["design_flow_m3s"] = Json(p.design_flow_m3s);
  j["design_head_pa"] = Json(p.design_head_pa);
  j["shutoff_head_pa"] = Json(p.shutoff_head_pa);
  j["rated_power_w"] = Json(p.rated_power_w);
  j["efficiency"] = Json(p.efficiency);
  j["min_speed"] = Json(p.min_speed);
  return j;
}

PumpConfig pump_from_json(const Json& j, const PumpConfig& d) {
  PumpConfig p = d;
  p.design_flow_m3s = j.number_or("design_flow_m3s", p.design_flow_m3s);
  p.design_head_pa = j.number_or("design_head_pa", p.design_head_pa);
  p.shutoff_head_pa = j.number_or("shutoff_head_pa", p.shutoff_head_pa);
  p.rated_power_w = j.number_or("rated_power_w", p.rated_power_w);
  p.efficiency = j.number_or("efficiency", p.efficiency);
  p.min_speed = j.number_or("min_speed", p.min_speed);
  return p;
}

Json cooling_to_json(const CoolingConfig& c) {
  Json j;
  Json cdu;
  cdu["pump_avg_w"] = Json(c.cdu.pump_avg_w);
  cdu["pump"] = pump_to_json(c.cdu.pump);
  cdu["secondary_volume_m3"] = Json(c.cdu.secondary_volume_m3);
  cdu["secondary_design_flow_m3s"] = Json(c.cdu.secondary_design_flow_m3s);
  cdu["secondary_design_dp_pa"] = Json(c.cdu.secondary_design_dp_pa);
  cdu["hex_ua_w_per_k"] = Json(c.cdu.hex.ua_w_per_k);
  cdu["supply_setpoint_c"] = Json(c.cdu.supply_setpoint_c);
  cdu["loop_dp_setpoint_pa"] = Json(c.cdu.loop_dp_setpoint_pa);
  cdu["rack_branch_dp_pa"] = Json(c.cdu.rack_branch_dp_pa);
  j["cdu"] = cdu;

  Json pri;
  pri["pump_count"] = Json(c.primary.pump_count);
  pri["pump"] = pump_to_json(c.primary.pump);
  pri["ehx_count"] = Json(c.primary.ehx_count);
  pri["ehx_ua_w_per_k"] = Json(c.primary.ehx.ua_w_per_k);
  pri["volume_m3"] = Json(c.primary.volume_m3);
  pri["design_flow_m3s"] = Json(c.primary.design_flow_m3s);
  pri["htws_setpoint_c"] = Json(c.primary.htws_setpoint_c);
  pri["dp_setpoint_pa"] = Json(c.primary.dp_setpoint_pa);
  pri["stage_up_speed"] = Json(c.primary.stage_up_speed);
  pri["stage_down_speed"] = Json(c.primary.stage_down_speed);
  pri["stage_min_interval_s"] = Json(c.primary.stage_min_interval_s);
  j["primary"] = pri;

  Json ct;
  ct["pump_count"] = Json(c.ct.pump_count);
  ct["pump"] = pump_to_json(c.ct.pump);
  ct["volume_m3"] = Json(c.ct.volume_m3);
  ct["design_flow_m3s"] = Json(c.ct.design_flow_m3s);
  ct["header_pressure_setpoint_pa"] = Json(c.ct.header_pressure_setpoint_pa);
  ct["stage_up_speed"] = Json(c.ct.stage_up_speed);
  ct["stage_down_speed"] = Json(c.ct.stage_down_speed);
  ct["stage_min_interval_s"] = Json(c.ct.stage_min_interval_s);
  ct["ct_stage_temp_band_k"] = Json(c.ct.ct_stage_temp_band_k);
  ct["ct_stage_min_interval_s"] = Json(c.ct.ct_stage_min_interval_s);
  Json tower;
  tower["tower_count"] = Json(c.ct.tower.tower_count);
  tower["cells_per_tower"] = Json(c.ct.tower.cells_per_tower);
  tower["fan_rated_w"] = Json(c.ct.tower.fan_rated_w);
  tower["design_approach_k"] = Json(c.ct.tower.design_approach_k);
  tower["effectiveness"] = curve_to_json(c.ct.tower.effectiveness);
  ct["tower"] = tower;
  j["ct"] = ct;

  j["cooling_efficiency"] = Json(c.cooling_efficiency);
  j["staging_delay_s"] = Json(c.staging_delay_s);
  j["thermal_substep_s"] = Json(c.thermal_substep_s);
  return j;
}

CoolingConfig cooling_from_json(const Json& j, const CoolingConfig& d) {
  CoolingConfig c = d;
  if (j.contains("cdu")) {
    const Json& cdu = j.at("cdu");
    c.cdu.pump_avg_w = cdu.number_or("pump_avg_w", c.cdu.pump_avg_w);
    if (cdu.contains("pump")) c.cdu.pump = pump_from_json(cdu.at("pump"), c.cdu.pump);
    c.cdu.secondary_volume_m3 = cdu.number_or("secondary_volume_m3", c.cdu.secondary_volume_m3);
    c.cdu.secondary_design_flow_m3s =
        cdu.number_or("secondary_design_flow_m3s", c.cdu.secondary_design_flow_m3s);
    c.cdu.secondary_design_dp_pa =
        cdu.number_or("secondary_design_dp_pa", c.cdu.secondary_design_dp_pa);
    c.cdu.hex.ua_w_per_k = cdu.number_or("hex_ua_w_per_k", c.cdu.hex.ua_w_per_k);
    c.cdu.supply_setpoint_c = cdu.number_or("supply_setpoint_c", c.cdu.supply_setpoint_c);
    c.cdu.loop_dp_setpoint_pa = cdu.number_or("loop_dp_setpoint_pa", c.cdu.loop_dp_setpoint_pa);
    c.cdu.rack_branch_dp_pa = cdu.number_or("rack_branch_dp_pa", c.cdu.rack_branch_dp_pa);
  }
  if (j.contains("primary")) {
    const Json& p = j.at("primary");
    c.primary.pump_count = static_cast<int>(p.int_or("pump_count", c.primary.pump_count));
    if (p.contains("pump")) c.primary.pump = pump_from_json(p.at("pump"), c.primary.pump);
    c.primary.ehx_count = static_cast<int>(p.int_or("ehx_count", c.primary.ehx_count));
    c.primary.ehx.ua_w_per_k = p.number_or("ehx_ua_w_per_k", c.primary.ehx.ua_w_per_k);
    c.primary.volume_m3 = p.number_or("volume_m3", c.primary.volume_m3);
    c.primary.design_flow_m3s = p.number_or("design_flow_m3s", c.primary.design_flow_m3s);
    c.primary.htws_setpoint_c = p.number_or("htws_setpoint_c", c.primary.htws_setpoint_c);
    c.primary.dp_setpoint_pa = p.number_or("dp_setpoint_pa", c.primary.dp_setpoint_pa);
    c.primary.stage_up_speed = p.number_or("stage_up_speed", c.primary.stage_up_speed);
    c.primary.stage_down_speed = p.number_or("stage_down_speed", c.primary.stage_down_speed);
    c.primary.stage_min_interval_s =
        p.number_or("stage_min_interval_s", c.primary.stage_min_interval_s);
  }
  if (j.contains("ct")) {
    const Json& t = j.at("ct");
    c.ct.pump_count = static_cast<int>(t.int_or("pump_count", c.ct.pump_count));
    if (t.contains("pump")) c.ct.pump = pump_from_json(t.at("pump"), c.ct.pump);
    c.ct.volume_m3 = t.number_or("volume_m3", c.ct.volume_m3);
    c.ct.design_flow_m3s = t.number_or("design_flow_m3s", c.ct.design_flow_m3s);
    c.ct.header_pressure_setpoint_pa =
        t.number_or("header_pressure_setpoint_pa", c.ct.header_pressure_setpoint_pa);
    c.ct.stage_up_speed = t.number_or("stage_up_speed", c.ct.stage_up_speed);
    c.ct.stage_down_speed = t.number_or("stage_down_speed", c.ct.stage_down_speed);
    c.ct.stage_min_interval_s = t.number_or("stage_min_interval_s", c.ct.stage_min_interval_s);
    c.ct.ct_stage_temp_band_k = t.number_or("ct_stage_temp_band_k", c.ct.ct_stage_temp_band_k);
    c.ct.ct_stage_min_interval_s =
        t.number_or("ct_stage_min_interval_s", c.ct.ct_stage_min_interval_s);
    if (t.contains("tower")) {
      const Json& w = t.at("tower");
      c.ct.tower.tower_count = static_cast<int>(w.int_or("tower_count", c.ct.tower.tower_count));
      c.ct.tower.cells_per_tower =
          static_cast<int>(w.int_or("cells_per_tower", c.ct.tower.cells_per_tower));
      c.ct.tower.fan_rated_w = w.number_or("fan_rated_w", c.ct.tower.fan_rated_w);
      c.ct.tower.design_approach_k =
          w.number_or("design_approach_k", c.ct.tower.design_approach_k);
      if (w.contains("effectiveness")) {
        c.ct.tower.effectiveness = curve_from_json(w.at("effectiveness"));
      }
    }
  }
  c.cooling_efficiency = j.number_or("cooling_efficiency", c.cooling_efficiency);
  c.staging_delay_s = j.number_or("staging_delay_s", c.staging_delay_s);
  c.thermal_substep_s = j.number_or("thermal_substep_s", c.thermal_substep_s);
  return c;
}

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

Json system_config_to_json(const SystemConfig& c) {
  Json j;
  j["name"] = Json(c.name);
  j["cdu_count"] = Json(c.cdu_count);
  j["racks_per_cdu"] = Json(c.racks_per_cdu);
  j["rack_count"] = Json(c.rack_count);
  j["node"] = node_to_json(c.node);
  j["rack"] = rack_to_json(c.rack);
  j["power"] = power_to_json(c.power);
  Json sched;
  sched["policy"] = Json(c.scheduler.policy);
  if (!c.scheduler.policy_params.is_null()) {
    sched["params"] = c.scheduler.policy_params;
  }
  sched["max_queue_depth"] = Json(c.scheduler.max_queue_depth);
  j["scheduler"] = sched;
  Json wl;
  wl["mean_arrival_s"] = Json(c.workload.mean_arrival_s);
  wl["mean_nodes"] = Json(c.workload.mean_nodes);
  wl["std_nodes"] = Json(c.workload.std_nodes);
  wl["mean_walltime_s"] = Json(c.workload.mean_walltime_s);
  wl["std_walltime_s"] = Json(c.workload.std_walltime_s);
  wl["mean_cpu_util"] = Json(c.workload.mean_cpu_util);
  wl["std_cpu_util"] = Json(c.workload.std_cpu_util);
  wl["mean_gpu_util"] = Json(c.workload.mean_gpu_util);
  wl["std_gpu_util"] = Json(c.workload.std_gpu_util);
  j["workload"] = wl;
  Json eco;
  eco["electricity_usd_per_kwh"] = Json(c.economics.electricity_usd_per_kwh);
  eco["emission_lbs_per_mwh"] = Json(c.economics.emission_lbs_per_mwh);
  j["economics"] = eco;
  j["cooling"] = cooling_to_json(c.cooling);
  Json sim;
  sim["tick_s"] = Json(c.simulation.tick_s);
  sim["cooling_quantum_s"] = Json(c.simulation.cooling_quantum_s);
  sim["trace_quantum_s"] = Json(c.simulation.trace_quantum_s);
  j["simulation"] = sim;
  if (!c.partitions.empty()) {
    Json::Array parts;
    for (const auto& p : c.partitions) {
      Json jp;
      jp["name"] = Json(p.name);
      jp["node_count"] = Json(p.node_count);
      jp["node"] = node_to_json(p.node);
      parts.push_back(jp);
    }
    j["partitions"] = Json(std::move(parts));
  }
  return j;
}

SystemConfig system_config_from_json(const Json& j) {
  SystemConfig d = frontier_system_config();  // defaults
  SystemConfig c;
  c.name = j.string_or("name", d.name);
  c.cdu_count = static_cast<int>(j.int_or("cdu_count", d.cdu_count));
  c.racks_per_cdu = static_cast<int>(j.int_or("racks_per_cdu", d.racks_per_cdu));
  c.rack_count = static_cast<int>(j.int_or("rack_count", d.rack_count));
  c.node = j.contains("node") ? node_from_json(j.at("node"), d.node) : d.node;
  c.rack = j.contains("rack") ? rack_from_json(j.at("rack"), d.rack) : d.rack;
  c.power = j.contains("power") ? power_from_json(j.at("power"), d.power) : d.power;
  c.scheduler = d.scheduler;
  if (j.contains("scheduler")) {
    const Json& s = j.at("scheduler");
    if (s.contains("policy")) {
      const std::string name = s.at("policy").as_string();
      require_scheduler_policy_name(name);
      c.scheduler.policy = name;
    }
    if (s.contains("params")) c.scheduler.policy_params = s.at("params");
    c.scheduler.max_queue_depth =
        static_cast<int>(s.int_or("max_queue_depth", c.scheduler.max_queue_depth));
  }
  c.workload = d.workload;
  if (j.contains("workload")) {
    const Json& w = j.at("workload");
    c.workload.mean_arrival_s = w.number_or("mean_arrival_s", c.workload.mean_arrival_s);
    c.workload.mean_nodes = w.number_or("mean_nodes", c.workload.mean_nodes);
    c.workload.std_nodes = w.number_or("std_nodes", c.workload.std_nodes);
    c.workload.mean_walltime_s = w.number_or("mean_walltime_s", c.workload.mean_walltime_s);
    c.workload.std_walltime_s = w.number_or("std_walltime_s", c.workload.std_walltime_s);
    c.workload.mean_cpu_util = w.number_or("mean_cpu_util", c.workload.mean_cpu_util);
    c.workload.std_cpu_util = w.number_or("std_cpu_util", c.workload.std_cpu_util);
    c.workload.mean_gpu_util = w.number_or("mean_gpu_util", c.workload.mean_gpu_util);
    c.workload.std_gpu_util = w.number_or("std_gpu_util", c.workload.std_gpu_util);
  }
  c.economics = d.economics;
  if (j.contains("economics")) {
    const Json& e = j.at("economics");
    c.economics.electricity_usd_per_kwh =
        e.number_or("electricity_usd_per_kwh", c.economics.electricity_usd_per_kwh);
    c.economics.emission_lbs_per_mwh =
        e.number_or("emission_lbs_per_mwh", c.economics.emission_lbs_per_mwh);
  }
  c.cooling = j.contains("cooling") ? cooling_from_json(j.at("cooling"), d.cooling) : d.cooling;
  c.simulation = d.simulation;
  if (j.contains("simulation")) {
    const Json& s = j.at("simulation");
    c.simulation.tick_s = s.number_or("tick_s", c.simulation.tick_s);
    c.simulation.cooling_quantum_s =
        s.number_or("cooling_quantum_s", c.simulation.cooling_quantum_s);
    c.simulation.trace_quantum_s = s.number_or("trace_quantum_s", c.simulation.trace_quantum_s);
  }
  if (j.contains("partitions")) {
    for (const auto& jp : j.at("partitions").as_array()) {
      PartitionConfig p;
      p.name = jp.at("name").as_string();
      p.node_count = static_cast<int>(jp.at("node_count").as_int());
      p.node = jp.contains("node") ? node_from_json(jp.at("node"), c.node) : c.node;
      c.partitions.push_back(std::move(p));
    }
  }
  c.validate();
  return c;
}

const Json& frontier_descriptor_json() {
  // Magic-static: built on first use, thread-safe, immutable afterwards.
  static const Json descriptor = system_config_to_json(frontier_system_config());
  return descriptor;
}

}  // namespace exadigit
