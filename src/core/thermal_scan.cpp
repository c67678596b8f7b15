#include "core/thermal_scan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace exadigit {

ThermalScanResult scan_fleet_thermals(const RapsEngine& engine, const PlantOutputs& plant,
                                      const ThermalScanConfig& scan) {
  const SystemConfig& config = engine.config();
  require(static_cast<int>(plant.cdus.size()) == config.cdu_count,
          "plant outputs do not match the engine's machine");
  require(scan.node_blockage.empty() ||
              static_cast<int>(scan.node_blockage.size()) == config.total_nodes(),
          "node_blockage must be empty or cover every node");

  const BladeThermalModel blade(frontier_cpu_cold_plate(), frontier_gpu_cold_plate());
  const double quantum = config.simulation.trace_quantum_s;
  const int blades_per_rack = config.rack.blades_per_rack;
  const int racks_per_cdu_nominal = config.racks_per_cdu;

  ThermalScanResult result;
  result.rack_max_gpu_c.assign(static_cast<std::size_t>(config.rack_count), -1.0);
  SummaryStats gpu_stats;

  for (const RunningJob& job : engine.running_jobs()) {
    const double since = engine.now_s() - job.start_time_s;
    const JobRecord::Utilization u = job.record.utilization_at(since, quantum);
    const NodeConfig& node_cfg = config.node;
    const double cpu_w =
        node_cfg.cpus_per_node *
        (node_cfg.cpu_idle_w + u.cpu * (node_cfg.cpu_peak_w - node_cfg.cpu_idle_w));
    const double gpu_w_each =
        node_cfg.gpu_idle_w + u.gpu * (node_cfg.gpu_peak_w - node_cfg.gpu_idle_w);

    for (const int n : job.nodes) {
      const int rack = config.rack_of_node(n);
      const int cdu = std::min(config.cdu_of_rack(rack), config.cdu_count - 1);
      const CduOutputs& c = plant.cdus[static_cast<std::size_t>(cdu)];
      // The CDU secondary flow feeds racks_for_cdu racks of blades in
      // parallel; each blade branch gets an equal share.
      const int racks_served = std::max(1, std::min(config.racks_for_cdu(cdu),
                                                    racks_per_cdu_nominal));
      const double blade_flow =
          c.sec_flow_m3s / static_cast<double>(racks_served * blades_per_rack);
      const double blockage =
          scan.node_blockage.empty() ? 1.0
                                     : scan.node_blockage[static_cast<std::size_t>(n)];
      const NodeThermalState s =
          blade.evaluate_node(cpu_w, gpu_w_each, node_cfg.gpus_per_node,
                              c.sec_supply_t_c, blade_flow, blockage);
      NodeThermalReading r;
      r.node_index = n;
      r.rack_index = rack;
      r.cdu_index = cdu;
      r.cpu_die_c = s.cpu_die_c;
      r.max_gpu_die_c =
          s.gpu_die_c.empty() ? 0.0 : *std::max_element(s.gpu_die_c.begin(), s.gpu_die_c.end());
      r.throttled = s.cpu_throttled || s.gpu_throttled;
      if (r.throttled) ++result.throttled_nodes;
      gpu_stats.add(r.max_gpu_die_c);
      auto& rack_max = result.rack_max_gpu_c[static_cast<std::size_t>(rack)];
      rack_max = std::max(rack_max, r.max_gpu_die_c);
      result.readings.push_back(r);
    }
  }

  if (gpu_stats.count() > 0) {
    result.fleet_max_gpu_c = gpu_stats.max();
    result.fleet_mean_gpu_c = gpu_stats.mean();
    const double sigma = gpu_stats.stddev();
    if (sigma > 1e-6) {
      const double threshold = gpu_stats.mean() + scan.anomaly_sigma * sigma;
      for (const NodeThermalReading& r : result.readings) {
        if (r.max_gpu_die_c > threshold) result.anomalies.push_back(r);
      }
      std::sort(result.anomalies.begin(), result.anomalies.end(),
                [](const NodeThermalReading& a, const NodeThermalReading& b) {
                  return a.max_gpu_die_c > b.max_gpu_die_c;
                });
    }
  }
  return result;
}

}  // namespace exadigit
