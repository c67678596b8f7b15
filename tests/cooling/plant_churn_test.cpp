/// A churning plant run — staging events, a rack blockage and a forced
/// pump speed — checked for consistency: a reset plant against a fresh one
/// and its counters after reset(), energy and PUE bookkeeping, and the
/// batched thermal kernel against its scalar reference bit for bit. The
/// suites keep the names they had when they also cross-checked a
/// deduplicated hydraulic solver.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/units.hpp"
#include "cooling/plant.hpp"

namespace exadigit {
namespace {

/// Applies check(x, y, name) to every floating-point PlantOutputs field of
/// `a` and `b`; the integer staging counts are always compared exactly.
template <typename Check>
void compare_outputs(const PlantOutputs& a, const PlantOutputs& b, int step, Check check) {
  ASSERT_EQ(a.cdus.size(), b.cdus.size());
  for (std::size_t i = 0; i < a.cdus.size(); ++i) {
    const CduOutputs& x = a.cdus[i];
    const CduOutputs& y = b.cdus[i];
    const std::string tag = "cdu[" + std::to_string(i) + "].";
    check(x.pump_power_w, y.pump_power_w, tag + "pump_power_w");
    check(x.pump_speed, y.pump_speed, tag + "pump_speed");
    check(x.sec_flow_m3s, y.sec_flow_m3s, tag + "sec_flow_m3s");
    check(x.pri_flow_m3s, y.pri_flow_m3s, tag + "pri_flow_m3s");
    check(x.sec_supply_t_c, y.sec_supply_t_c, tag + "sec_supply_t_c");
    check(x.sec_return_t_c, y.sec_return_t_c, tag + "sec_return_t_c");
    check(x.sec_supply_p_pa, y.sec_supply_p_pa, tag + "sec_supply_p_pa");
    check(x.sec_return_p_pa, y.sec_return_p_pa, tag + "sec_return_p_pa");
    check(x.valve_position, y.valve_position, tag + "valve_position");
    check(x.hex_duty_w, y.hex_duty_w, tag + "hex_duty_w");
    check(x.pri_return_t_c, y.pri_return_t_c, tag + "pri_return_t_c");
    check(x.loop_dp_pa, y.loop_dp_pa, tag + "loop_dp_pa");
  }
  EXPECT_EQ(a.htwp_staged, b.htwp_staged) << "step " << step;
  check(a.htwp_speed, b.htwp_speed, "htwp_speed");
  check(a.htwp_power_w, b.htwp_power_w, "htwp_power_w");
  EXPECT_EQ(a.ehx_staged, b.ehx_staged) << "step " << step;
  check(a.pri_supply_t_c, b.pri_supply_t_c, "pri_supply_t_c");
  check(a.pri_return_t_c, b.pri_return_t_c, "pri_return_t_c");
  check(a.pri_flow_m3s, b.pri_flow_m3s, "pri_flow_m3s");
  check(a.pri_dp_pa, b.pri_dp_pa, "pri_dp_pa");
  EXPECT_EQ(a.ct_cells_staged, b.ct_cells_staged) << "step " << step;
  EXPECT_EQ(a.ctwp_staged, b.ctwp_staged) << "step " << step;
  check(a.ctwp_speed, b.ctwp_speed, "ctwp_speed");
  check(a.ctwp_power_w, b.ctwp_power_w, "ctwp_power_w");
  check(a.fan_speed, b.fan_speed, "fan_speed");
  check(a.fan_power_w, b.fan_power_w, "fan_power_w");
  check(a.ct_supply_t_c, b.ct_supply_t_c, "ct_supply_t_c");
  check(a.ct_return_t_c, b.ct_return_t_c, "ct_return_t_c");
  check(a.pue, b.pue, "pue");
}

void expect_outputs_bit_identical(const PlantOutputs& a, const PlantOutputs& b, int step) {
  compare_outputs(a, b, step, [step](double x, double y, const std::string& what) {
    EXPECT_EQ(x, y) << what << " differs at step " << step;
  });
}

/// One step of the churn script: per-CDU load imbalance, a weather ramp
/// (forces CT cell / EHX staging), a rack blockage injected then cleared,
/// and a CDU pump forced then released.
void churn_step(CoolingPlantModel& plant, int step, const SystemConfig& config) {
  const int n = config.cdu_count;
  CoolingInputs in;
  in.cdu_heat_w.resize(static_cast<std::size_t>(n));
  // Load swings 8 -> 26 MW with a per-CDU imbalance so CDU heat inputs
  // differ.
  const double sys_mw = 17.0 + 9.0 * std::sin(step * 0.01);
  for (int i = 0; i < n; ++i) {
    const double weight = 1.0 + 0.3 * std::sin(0.7 * i + 0.05 * step);
    in.cdu_heat_w[static_cast<std::size_t>(i)] =
        units::watts_from_mw(sys_mw) * config.cooling.cooling_efficiency * weight /
        static_cast<double>(n);
  }
  in.wetbulb_c = 12.0 + 10.0 * std::sin(step * 0.004);  // staging churn
  in.system_power_w = units::watts_from_mw(sys_mw);

  if (step == 200) plant.set_rack_blockage(3, 1, 0.35);
  if (step == 520) plant.set_rack_blockage(3, 1, 1.0);  // cleared
  if (step == 320) plant.force_cdu_pump_speed(7, 0.55);
  if (step == 640) plant.force_cdu_pump_speed(7, -1.0);  // back to PID

  plant.step(in, config.simulation.cooling_quantum_s);
}

TEST(PlantDedupTest, ResetClearsCountersAndStaysExact) {
  const SystemConfig config = frontier_system_config();
  const long long loops = config.cdu_count + 2;
  // Churned into staging, with the rack blockage and the forced pump both
  // in force, and the basin setpoint moved.
  CoolingPlantModel plant(config);
  plant.set_basin_setpoint_offset(-6.0);
  for (int step = 0; step < 400; ++step) churn_step(plant, step, config);
  plant.reset(18.0);
  CoolingPlantModel fresh(config);
  fresh.reset(18.0);
  // reset() evaluates every loop once for the quiescent plant.
  EXPECT_EQ(plant.step_count(), 0);
  EXPECT_EQ(plant.hydraulics_stats().solves_performed, loops);
  EXPECT_EQ(plant.hydraulics_stats().solves_reused(), 0);
  EXPECT_EQ(plant.thermal_stats().hx_evaluated, 0);
  EXPECT_EQ(plant.basin_setpoint_c(), fresh.basin_setpoint_c());
  expect_outputs_bit_identical(plant.outputs(), fresh.outputs(), 0);
  // Afterwards every step evaluates every loop, each balances its mass, and
  // the reset plant stays equal to the fresh one.
  for (int step = 0; step < 60; ++step) {
    churn_step(plant, step, config);
    churn_step(fresh, step, config);
    expect_outputs_bit_identical(plant.outputs(), fresh.outputs(), step + 1);
  }
  EXPECT_EQ(plant.step_count(), 60);
  EXPECT_EQ(plant.hydraulics_stats().solves_performed, loops * 61);
  EXPECT_LE(plant.hydraulics_stats().max_mass_residual_rel, 1e-12);
  EXPECT_EQ(plant.hydraulics_stats().max_mass_residual_rel,
            fresh.hydraulics_stats().max_mass_residual_rel);
  EXPECT_EQ(plant.hydraulics_stats().solves_performed,
            fresh.hydraulics_stats().solves_performed);
  EXPECT_EQ(plant.thermal_stats().hx_evaluated, fresh.thermal_stats().hx_evaluated);
  EXPECT_EQ(plant.time_s(), fresh.time_s());
}

/// Energy consistency of the plant outputs: the summed CDU HEX duty tracks
/// the injected heat at steady state, and PUE / aux_power_w stay consistent
/// with the component powers.
TEST(PlantDedupTest, EnergyAndPueConsistentUnderDedup) {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel plant(config);
  plant.reset(20.0);

  CoolingInputs in;
  const double heat_per_cdu = units::watts_from_mw(17.0) *
                              config.cooling.cooling_efficiency / config.cdu_count;
  in.cdu_heat_w.assign(static_cast<std::size_t>(config.cdu_count), heat_per_cdu);
  in.wetbulb_c = 16.0;
  in.system_power_w = units::watts_from_mw(17.0);
  const double dt = config.simulation.cooling_quantum_s;
  const int settle_steps = static_cast<int>(5.0 * 3600.0 / dt);
  for (int i = 0; i < settle_steps; ++i) plant.step(in, dt);

  const PlantOutputs& out = plant.outputs();
  const double heat_in = heat_per_cdu * config.cdu_count;
  // All injected CDU heat leaves through the HEX bank at steady state.
  EXPECT_NEAR(out.total_hex_duty_w(), heat_in, heat_in * 0.02);

  // aux_power_w is exactly the sum of its components...
  double cdu_pumps = 0.0;
  for (const auto& c : out.cdus) {
    cdu_pumps += c.pump_power_w;
    EXPECT_GT(c.pump_power_w, 0.0);
    EXPECT_GT(c.hex_duty_w, 0.0);
  }
  EXPECT_NEAR(out.aux_power_w(),
              cdu_pumps + out.htwp_power_w + out.ctwp_power_w + out.fan_power_w,
              1e-9 * std::max(1.0, out.aux_power_w()));
  // ...and the PUE output is the facility/system ratio rebuilt from the
  // same component powers (CDU pumps are part of P_system, Table I).
  const double facility = in.system_power_w + out.htwp_power_w + out.ctwp_power_w +
                          out.fan_power_w;
  EXPECT_NEAR(out.pue, facility / in.system_power_w, 1e-12);
  EXPECT_GT(out.pue, 1.0);
}

TEST(PlantThermalEvalTest, BatchedKernelBitIdenticalToScalarReference) {
  // ThermalEval::kScalar is the per-CDU reference path for the gathered/
  // batched HX kernel; a churning run must match it to the last bit (the
  // batch performs the same operations in the same order per element).
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel batched(config);  // kBatched is the default
  CoolingPlantModel scalar(config);
  scalar.set_thermal_eval(ThermalEval::kScalar);
  for (int step = 0; step < 800; ++step) {
    churn_step(batched, step, config);
    churn_step(scalar, step, config);
    if (step % 50 == 0) {
      expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), step);
    }
  }
  expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), 800);
  // Only the batched path counts kernel evaluations; the reference leaves 0.
  EXPECT_GT(batched.thermal_stats().hx_evaluated, 0);
  EXPECT_EQ(scalar.thermal_stats().hx_evaluated, 0);
}

/// With a 0.1 m3 CDU loop the stability guard splits each step into more
/// substeps than thermal_substep_s asks for; both thermal paths take the
/// same count, so they stay bit-identical.
TEST(PlantThermalEvalTest, BatchedMatchesScalarWhenTheGuardSplitsSteps) {
  SystemConfig config = frontier_system_config();
  config.cooling.cdu.secondary_volume_m3 = 0.1;
  CoolingPlantModel batched(config);
  CoolingPlantModel scalar(config);
  scalar.set_thermal_eval(ThermalEval::kScalar);
  for (int step = 0; step < 400; ++step) {
    churn_step(batched, step, config);
    churn_step(scalar, step, config);
    if (step % 50 == 0) {
      expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), step);
    }
  }
  expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), 400);
  // More than the 5 substeps of 3 s per 15 s step, over 25 CDUs.
  EXPECT_GT(batched.thermal_stats().hx_evaluated, 400LL * 5 * config.cdu_count);
}

}  // namespace
}  // namespace exadigit
