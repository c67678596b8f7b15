#include "config/system_config.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

double NodeConfig::idle_power_w() const { return power_w(0.0, 0.0); }

double NodeConfig::peak_power_w() const { return power_w(1.0, 1.0); }

double NodeConfig::power_w(double cpu_util, double gpu_util) const {
  const double cu = std::clamp(cpu_util, 0.0, 1.0);
  const double gu = std::clamp(gpu_util, 0.0, 1.0);
  const double cpu = cpus_per_node * (cpu_idle_w + cu * (cpu_peak_w - cpu_idle_w));
  const double gpu = gpus_per_node * (gpu_idle_w + gu * (gpu_peak_w - gpu_idle_w));
  const double nic = nics_per_node * nic_w;
  const double nvme = nvme_per_node * nvme_w;
  return cpu + gpu + nic + ram_avg_w + nvme;
}

double PowerChainConfig::chain_efficiency(double group_output_w) const {
  require(group_output_w >= 0.0, "chain_efficiency requires non-negative load");
  if (group_output_w == 0.0) return 1.0;
  // SIVOC stage: load fraction of the blades' converters. A group feeds
  // `blades_per_group` blades with two SIVOCs each.
  const double sivoc_count = 2.0 * blades_per_group;
  const double sivoc_frac =
      std::clamp(group_output_w / (sivoc_count * sivoc_rated_w), 0.0, 1.5);
  const double eta_s = sivoc_efficiency(sivoc_frac);
  const double rectifier_output_w = group_output_w / eta_s;
  double eta_r = 1.0;
  if (feed == PowerFeed::kDC380) {
    eta_r = dc_feed_efficiency;
  } else if (load_sharing == LoadSharingPolicy::kSharedBus) {
    const double per_rect = rectifier_output_w / rectifiers_per_group;
    eta_r = rectifier_efficiency(per_rect);
  } else {
    // Smart staging: the unit count whose per-unit load maximizes the
    // efficiency curve (same selection as ConversionChain::staged_for).
    double best_eta = -1.0;
    for (int n = 1; n <= rectifiers_per_group; ++n) {
      const double per_unit = rectifier_output_w / n;
      if (per_unit > rectifier_rated_w && n < rectifiers_per_group) continue;
      best_eta = std::max(best_eta, rectifier_efficiency(per_unit));
    }
    eta_r = best_eta;
  }
  return eta_r * eta_s;
}

int SystemConfig::racks_for_cdu(int cdu) const {
  require(cdu >= 0 && cdu < cdu_count, "cdu index out of range");
  const int first = cdu * racks_per_cdu;
  return std::max(0, std::min(rack_count - first, racks_per_cdu));
}

void SystemConfig::validate() const {
  require(!name.empty(), "system name must be non-empty");
  require(cdu_count > 0, "cdu_count must be positive");
  require(racks_per_cdu > 0, "racks_per_cdu must be positive");
  require(rack_count > 0, "rack_count must be positive");
  require(rack_count <= cdu_count * racks_per_cdu,
          "rack_count exceeds CDU capacity (cdu_count * racks_per_cdu)");
  require(rack.nodes_per_rack > 0, "nodes_per_rack must be positive");
  require(rack.blades_per_rack * 2 == rack.nodes_per_rack,
          "Bard Peak blades carry two nodes: nodes_per_rack must be 2x blades");
  require(rack.rectifiers_per_rack % power.rectifiers_per_group == 0,
          "rectifiers_per_rack must be divisible by rectifiers_per_group");
  require(node.cpu_peak_w >= node.cpu_idle_w, "cpu peak power below idle");
  require(node.gpu_peak_w >= node.gpu_idle_w, "gpu peak power below idle");
  require(!power.rectifier_efficiency.empty(), "rectifier efficiency curve missing");
  require(!power.sivoc_efficiency.empty(), "sivoc efficiency curve missing");
  for (double eta : power.rectifier_efficiency.ys()) {
    require(eta > 0.0 && eta <= 1.0, "rectifier efficiency must be in (0,1]");
  }
  for (double eta : power.sivoc_efficiency.ys()) {
    require(eta > 0.0 && eta <= 1.0, "sivoc efficiency must be in (0,1]");
  }
  require(power.dc_feed_efficiency > 0.0 && power.dc_feed_efficiency <= 1.0,
          "dc feed efficiency must be in (0,1]");
  require(cooling.cooling_efficiency > 0.0 && cooling.cooling_efficiency <= 1.0,
          "cooling efficiency must be in (0,1]");
  require(cooling.step_s > 0.0, "cooling step must be positive");
  require(cooling.thermal_substep_s > 0.0 &&
              cooling.thermal_substep_s <= cooling.step_s,
          "thermal substep must be in (0, step]");
  require(simulation.tick_s > 0.0, "tick must be positive");
  require(simulation.cooling_quantum_s >= simulation.tick_s,
          "cooling quantum must be >= tick");
  require(workload.mean_arrival_s > 0.0, "mean arrival time must be positive");
  require(workload.mean_nodes >= 1.0, "mean job size must be >= 1 node");
  require(economics.electricity_usd_per_kwh >= 0.0, "negative electricity price");
  int partition_nodes = 0;
  for (const auto& p : partitions) {
    require(!p.name.empty(), "partition name must be non-empty");
    require(p.node_count > 0, "partition node_count must be positive");
    partition_nodes += p.node_count;
  }
  require(partitions.empty() || partition_nodes <= total_nodes(),
          "partitions oversubscribe the machine");
  // Cooling plant cross-checks.
  require(cooling.primary.pump_count > 0, "primary loop needs pumps");
  require(cooling.ct.pump_count > 0, "ct loop needs pumps");
  require(cooling.cdu.pump.design_flow_m3s > 0, "cdu pump design flow missing");
  require(cooling.primary.pump.design_flow_m3s > 0, "htwp design flow missing");
  require(cooling.ct.pump.design_flow_m3s > 0, "ctwp design flow missing");
  require(cooling.ct.tower.tower_count > 0 && cooling.ct.tower.cells_per_tower > 0,
          "cooling tower layout missing");
  require(!cooling.ct.tower.effectiveness.empty(), "cooling tower effectiveness curve missing");
}

}  // namespace exadigit
