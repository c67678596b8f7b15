#include "cooling/cooling_tower.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "cooling/fluid.hpp"

namespace exadigit {

CoolingTowerBank::CoolingTowerBank(const CoolingTowerConfig& config,
                                   double design_cell_flow_m3s)
    : config_(config), design_cell_flow_m3s_(design_cell_flow_m3s) {
  require(design_cell_flow_m3s_ > 0.0, "tower design cell flow must be positive");
  require(!config_.effectiveness.empty(), "tower effectiveness curve missing");
  require(config_.tower_count > 0 && config_.cells_per_tower > 0,
          "tower bank layout must be positive");
}

double TowerOperatingPoint::water_out_c(double water_in_c, double wetbulb_c) const {
  const double approach_target = std::max(water_in_c - wetbulb_c, 0.0);
  return water_in_c - effectiveness * approach_target;
}

TowerOperatingPoint CoolingTowerBank::operating_point(int staged_cells, double fan_speed,
                                                      double water_flow_m3s) const {
  require(staged_cells >= 0 && staged_cells <= total_cells(),
          "staged cell count out of range");
  TowerOperatingPoint op;
  if (staged_cells == 0 || water_flow_m3s <= 0.0) return op;

  const double speed = std::clamp(fan_speed, 0.0, 1.0);
  const double cell_flow = water_flow_m3s / static_cast<double>(staged_cells);

  // Effectiveness at design loading from the fan-speed curve, converted to
  // a Merkel NTU, then corrected for water loading: lighter loading gives
  // more transfer units per unit water (NTU ~ (m_design/m)^0.6).
  const double eff_design = std::clamp(config_.effectiveness(speed), 0.0, 0.999);
  const double ntu_design = -std::log(1.0 - eff_design);
  const double loading = std::clamp(cell_flow / design_cell_flow_m3s_, 0.2, 3.0);
  const double ntu = ntu_design * std::pow(1.0 / loading, 0.6);
  op.effectiveness = 1.0 - std::exp(-ntu);
  // Cube-law fan power plus a small fixed draw per staged cell (gearbox,
  // spray pumps) so "fans off" cells are not free.
  op.fan_power_w = static_cast<double>(staged_cells) * config_.fan_rated_w *
                   (0.04 + 0.96 * speed * speed * speed);
  return op;
}

TowerResult CoolingTowerBank::evaluate(int staged_cells, double fan_speed,
                                       double water_flow_m3s, double water_in_c,
                                       double wetbulb_c) const {
  const TowerOperatingPoint op = operating_point(staged_cells, fan_speed, water_flow_m3s);
  TowerResult r;
  r.water_out_c = op.water_out_c(water_in_c, wetbulb_c);
  r.fan_power_w = op.fan_power_w;
  if (op.effectiveness == 0.0) return r;
  const double approach_target = std::max(water_in_c - wetbulb_c, 0.0);
  const double dt = op.effectiveness * approach_target;  // water never undershoots wet bulb
  r.effectiveness = approach_target > 0.0 ? dt / approach_target : 0.0;
  r.heat_rejected_w =
      capacity_rate(Coolant::kWater, 0.5 * (water_in_c + r.water_out_c), water_flow_m3s) * dt;
  return r;
}

}  // namespace exadigit
