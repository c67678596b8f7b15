#include "core/autonomous.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "cooling/plant.hpp"

namespace exadigit {

namespace {

SetpointCandidate evaluate_offset(const SystemConfig& config, double system_power_w,
                                  double wetbulb_c, double offset_k,
                                  const SetpointOptimizerConfig& optimizer) {
  CoolingPlantModel plant(config);
  plant.reset(wetbulb_c + 4.0);
  plant.set_basin_setpoint_offset(offset_k);
  CoolingInputs in;
  in.cdu_heat_w.assign(static_cast<std::size_t>(config.cdu_count),
                       config.plant_heat_w(system_power_w) / config.cdu_count);
  in.wetbulb_c = wetbulb_c;
  in.system_power_w = system_power_w;
  const double dt = config.simulation.cooling_quantum_s;
  const int steps =
      static_cast<int>(optimizer.settle_hours * units::kSecondsPerHour / dt);
  for (int i = 0; i < steps; ++i) plant.step(in, dt);
  // Average the final half hour so staging limit cycles do not bias the
  // comparison between candidates.
  double pue_acc = 0.0;
  double htws_acc = 0.0;
  double fan_acc = 0.0;
  const int avg_steps = static_cast<int>(1800.0 / dt);
  for (int i = 0; i < avg_steps; ++i) {
    const PlantOutputs& out = plant.step(in, dt);
    pue_acc += out.pue;
    htws_acc += out.pri_supply_t_c;
    fan_acc += out.fan_power_w;
  }
  SetpointCandidate c;
  c.basin_offset_k = offset_k;
  c.pue = pue_acc / avg_steps;
  c.htws_c = htws_acc / avg_steps;
  c.fan_power_w = fan_acc / avg_steps;
  const double band = config.cooling.ct.ct_stage_temp_band_k + optimizer.htws_margin_k;
  c.feasible = c.htws_c <= config.cooling.primary.htws_setpoint_c + band;
  return c;
}

}  // namespace

SetpointOptimizationResult optimize_basin_setpoint(
    const SystemConfig& config, double system_power_w, double wetbulb_c,
    const SetpointOptimizerConfig& optimizer) {
  require(system_power_w > 0.0, "setpoint optimization requires positive system power");
  require(optimizer.offset_min_k < optimizer.offset_max_k && optimizer.offset_max_k < 0.0,
          "optimizer offsets must satisfy min < max < 0");
  require(optimizer.coarse_steps >= 2, "optimizer needs at least two coarse steps");

  SetpointOptimizationResult result;
  result.baseline = evaluate_offset(config, system_power_w, wetbulb_c, -4.0, optimizer);
  result.evaluated.push_back(result.baseline);

  auto better = [](const SetpointCandidate& a, const SetpointCandidate& b) {
    if (a.feasible != b.feasible) return a.feasible;
    return a.pue < b.pue;
  };

  // Coarse scan of the offset range.
  SetpointCandidate best = result.baseline;
  const double span = optimizer.offset_max_k - optimizer.offset_min_k;
  for (int i = 0; i < optimizer.coarse_steps; ++i) {
    const double offset =
        optimizer.offset_min_k +
        span * static_cast<double>(i) / static_cast<double>(optimizer.coarse_steps - 1);
    const SetpointCandidate c =
        evaluate_offset(config, system_power_w, wetbulb_c, offset, optimizer);
    result.evaluated.push_back(c);
    if (better(c, best)) best = c;
  }

  // Local refinement: bisect toward the best neighbour.
  double step = span / static_cast<double>(optimizer.coarse_steps - 1) / 2.0;
  for (int i = 0; i < optimizer.refine_steps; ++i) {
    for (const double side : {-1.0, 1.0}) {
      const double offset = std::clamp(best.basin_offset_k + side * step,
                                       optimizer.offset_min_k, optimizer.offset_max_k);
      if (std::abs(offset - best.basin_offset_k) < 1e-6) continue;
      const SetpointCandidate c =
          evaluate_offset(config, system_power_w, wetbulb_c, offset, optimizer);
      result.evaluated.push_back(c);
      if (better(c, best)) best = c;
    }
    step /= 2.0;
  }

  result.best = best;
  // The improvement is only meaningful against a feasible baseline; when
  // the default setpoint violates the HTWS band the optimizer's job was to
  // restore feasibility, not to beat an invalid PUE.
  if (result.baseline.feasible && best.feasible) {
    result.pue_improvement = result.baseline.pue - best.pue;
    // PUE delta times IT power is the total auxiliary saving (fans, CTWPs,
    // HTWPs all shift when the basin setpoint moves).
    const double aux_saving_w = result.pue_improvement * system_power_w;
    result.annual_savings_usd = aux_saving_w / 1000.0 * units::kHoursPerYear *
                                config.economics.electricity_usd_per_kwh;
  }
  return result;
}

}  // namespace exadigit
