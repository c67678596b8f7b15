#include "power/rack_power.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

RackPowerModel::RackPowerModel(const RackConfig& rack, const PowerChainConfig& chain)
    : rack_(rack), chain_(chain) {
  require(rack_.rectifiers_per_rack % chain.rectifiers_per_group == 0,
          "rack rectifiers not divisible into groups");
  groups_per_rack_ = rack_.rectifiers_per_rack / chain.rectifiers_per_group;
  require(rack_.nodes_per_rack % groups_per_rack_ == 0,
          "rack nodes not divisible into rectifier groups");
  nodes_per_group_ = rack_.nodes_per_rack / groups_per_rack_;
}

void RackPowerModel::add_switches(RackPowerResult& result) const {
  // Switches are fed from the rack's rectifiers (no SIVOC stage). Their
  // conversion runs at the rack-average rectifier operating point.
  const double switch_w = rack_.switches_per_rack * rack_.switch_avg_w;
  result.switch_output_w = switch_w;
  if (switch_w <= 0.0) return;
  double eta_r = 1.0;
  if (chain_.config().feed == PowerFeed::kDC380) {
    eta_r = chain_.config().dc_feed_efficiency;
  } else {
    // Average per-rectifier DC output across the rack, switch share included.
    const double rect_dc_w =
        result.node_output_w + result.sivoc_loss_w + switch_w;
    const double per_unit =
        rect_dc_w / static_cast<double>(rack_.rectifiers_per_rack);
    eta_r = chain_.config().rectifier_efficiency(per_unit);
  }
  const double input = switch_w / eta_r;
  result.input_w += input;
  result.rectifier_loss_w += input - switch_w;
}

RackPowerResult RackPowerModel::from_group_outputs(std::span<const double> group_outputs_w,
                                                   std::span<GroupConversion> conversions) const {
  require(group_outputs_w.size() == static_cast<std::size_t>(groups_per_rack_),
          "group output count must match groups per rack");
  require(conversions.empty() || conversions.size() == group_outputs_w.size(),
          "group conversion count must match groups per rack");
  RackPowerResult result;
  for (std::size_t g = 0; g < group_outputs_w.size(); ++g) {
    const ConversionResult c = chain_.convert(group_outputs_w[g]);
    result.node_output_w += c.output_w;
    result.input_w += c.input_w;
    result.rectifier_loss_w += c.rectifier_loss_w;
    result.sivoc_loss_w += c.sivoc_loss_w;
    result.any_overload = result.any_overload || c.overloaded;
    if (!conversions.empty()) conversions[g] = GroupConversion::of(c);
  }
  add_switches(result);
  return result;
}

RackPowerResult RackPowerModel::from_group_conversions(
    std::span<const GroupConversion> groups) const {
  require(groups.size() == static_cast<std::size_t>(groups_per_rack_),
          "group conversion count must match groups per rack");
  // Runs of adjacent groups with the same exact load (idle spans, groups
  // one job fully covers) add one conversion times the run length.
  RackPowerResult result;
  std::size_t i = 0;
  const std::size_t n = groups.size();
  while (i < n) {
    const GroupConversion& c = groups[i];
    std::size_t j = i + 1;
    while (j < n && groups[j].output_w == c.output_w) ++j;
    const double len = static_cast<double>(j - i);
    result.node_output_w += c.output_w * len;
    result.input_w += c.input_w * len;
    result.rectifier_loss_w += c.rectifier_loss_w * len;
    result.sivoc_loss_w += c.sivoc_loss_w * len;
    result.any_overload = result.any_overload || c.overloaded;
    i = j;
  }
  add_switches(result);
  return result;
}

RackPowerResult RackPowerModel::from_uniform_node_power(double node_output_w,
                                                        int active_nodes) const {
  require(active_nodes >= 0 && active_nodes <= rack_.nodes_per_rack,
          "active node count out of range for rack");
  RackPowerResult result;
  // Full groups running `node_output_w` per node, plus one partial group.
  const int full_groups = active_nodes / nodes_per_group_;
  const int remainder_nodes = active_nodes % nodes_per_group_;
  if (full_groups > 0) {
    const ConversionResult c =
        chain_.convert(node_output_w * static_cast<double>(nodes_per_group_));
    result.node_output_w += full_groups * c.output_w;
    result.input_w += full_groups * c.input_w;
    result.rectifier_loss_w += full_groups * c.rectifier_loss_w;
    result.sivoc_loss_w += full_groups * c.sivoc_loss_w;
    result.any_overload = result.any_overload || c.overloaded;
  }
  if (remainder_nodes > 0) {
    const ConversionResult c =
        chain_.convert(node_output_w * static_cast<double>(remainder_nodes));
    result.node_output_w += c.output_w;
    result.input_w += c.input_w;
    result.rectifier_loss_w += c.rectifier_loss_w;
    result.sivoc_loss_w += c.sivoc_loss_w;
    result.any_overload = result.any_overload || c.overloaded;
  }
  add_switches(result);
  return result;
}

SystemPowerModel::SystemPowerModel(const SystemConfig& config)
    : config_(config), rack_model_(config.rack, config.power) {
  config_.validate();
}

double SystemPowerModel::cdu_pump_power_w() const {
  return config_.cooling.cdu.pump_avg_w * static_cast<double>(config_.cdu_count);
}

double SystemPowerModel::uniform_system_power_w(double cpu_util, double gpu_util) const {
  const double node_w = config_.node.power_w(cpu_util, gpu_util);
  const RackPowerResult rack =
      rack_model_.from_uniform_node_power(node_w, config_.rack.nodes_per_rack);
  return rack.input_w * static_cast<double>(config_.rack_count) + cdu_pump_power_w();
}

PowerBreakdown SystemPowerModel::breakdown(double cpu_util, double gpu_util) const {
  const NodeConfig& n = config_.node;
  const double nodes = static_cast<double>(config_.total_nodes());
  PowerBreakdown b;
  const double cu = std::clamp(cpu_util, 0.0, 1.0);
  const double gu = std::clamp(gpu_util, 0.0, 1.0);
  b.cpus_w = nodes * n.cpus_per_node * (n.cpu_idle_w + cu * (n.cpu_peak_w - n.cpu_idle_w));
  b.gpus_w = nodes * n.gpus_per_node * (n.gpu_idle_w + gu * (n.gpu_peak_w - n.gpu_idle_w));
  b.ram_w = nodes * n.ram_avg_w;
  b.nvme_w = nodes * n.nvme_per_node * n.nvme_w;
  b.nics_w = nodes * n.nics_per_node * n.nic_w;
  const double node_w = n.power_w(cpu_util, gpu_util);
  const RackPowerResult rack =
      rack_model_.from_uniform_node_power(node_w, config_.rack.nodes_per_rack);
  b.switches_w = rack.switch_output_w * config_.rack_count;
  b.rectifier_loss_w = rack.rectifier_loss_w * config_.rack_count;
  b.sivoc_loss_w = rack.sivoc_loss_w * config_.rack_count;
  b.cdu_pumps_w = cdu_pump_power_w();
  return b;
}

}  // namespace exadigit
