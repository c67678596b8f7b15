#include "power/rack_power.hpp"

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

}  // namespace exadigit
