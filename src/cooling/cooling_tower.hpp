#pragma once

/// @file cooling_tower.hpp
/// Variable fan-speed evaporative cooling tower model.
///
/// Frontier's CT loop rejects heat through five towers of four cells each
/// (paper Fig. 5). This model follows the Modelica Buildings Library
/// variable-speed tower the paper used: a Merkel-style effectiveness toward
/// the ambient wet-bulb temperature, corrected for per-cell water loading,
/// with cube-law fan power.

#include "config/system_config.hpp"

namespace exadigit {

/// One evaluation of the tower bank.
struct TowerResult {
  double water_out_c = 0.0;   ///< basin (cold water) temperature
  double fan_power_w = 0.0;   ///< total electric power of staged cell fans
  double heat_rejected_w = 0.0;
  double effectiveness = 0.0; ///< realized (T_in - T_out)/(T_in - T_wb)
};

/// What staging, fan speed and water flow fix about the bank: everything
/// but the water and wet-bulb temperatures.
struct TowerOperatingPoint {
  double effectiveness = 0.0;  ///< Merkel effectiveness; 0 when no water flows
  double fan_power_w = 0.0;    ///< total electric power of staged cell fans

  /// Basin temperature for inlet water at `water_in_c` under ambient wet
  /// bulb `wetbulb_c`. Water never cools below the wet bulb.
  [[nodiscard]] double water_out_c(double water_in_c, double wetbulb_c) const;
};

/// A bank of identical tower cells with shared staging and fan speed.
class CoolingTowerBank {
 public:
  /// `design_cell_flow_m3s`: water loading per cell at which the config's
  /// effectiveness curve applies.
  CoolingTowerBank(const CoolingTowerConfig& config, double design_cell_flow_m3s);

  /// The bank with `staged_cells` active, all fans at `fan_speed` (0..1),
  /// and total water flow `water_flow_m3s` distributed evenly over staged
  /// cells. The plant holds these fixed for a step and takes only the
  /// approach to the wet bulb per thermal substep.
  [[nodiscard]] TowerOperatingPoint operating_point(int staged_cells, double fan_speed,
                                                    double water_flow_m3s) const;

  /// The full evaluation at inlet water `water_in_c` and ambient wet bulb
  /// `wetbulb_c`: operating_point() plus the approach, with the realized
  /// effectiveness and the heat rejected.
  [[nodiscard]] TowerResult evaluate(int staged_cells, double fan_speed,
                                     double water_flow_m3s, double water_in_c,
                                     double wetbulb_c) const;

  [[nodiscard]] int total_cells() const {
    return config_.tower_count * config_.cells_per_tower;
  }
  [[nodiscard]] const CoolingTowerConfig& config() const { return config_; }

 private:
  CoolingTowerConfig config_;
  double design_cell_flow_m3s_;
};

}  // namespace exadigit
