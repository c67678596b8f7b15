/// A churning plant run — staging events, a rack blockage and a forced
/// pump speed — checked for consistency: a reset plant against a fresh one
/// and its counters after reset(), energy and PUE bookkeeping, and the
/// lane-parallel CDU thermal kernel against its scalar reference bit for
/// bit. The suites keep the names they had when they also cross-checked a
/// deduplicated hydraulic solver and a gathered HX batch.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "cooling/cdu_thermal.hpp"
#include "cooling/fluid.hpp"
#include "cooling/heat_exchanger.hpp"
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

/// The counters of a default-path plant and a kScalar one after the same
/// steps: every hydraulic counter, the clock and the step count agree, and
/// hx_evaluated counts cdu_count per substep on the default path only.
void expect_counters_identical(const CoolingPlantModel& fast, const CoolingPlantModel& ref,
                               long long substeps) {
  EXPECT_EQ(fast.step_count(), ref.step_count());
  EXPECT_EQ(fast.time_s(), ref.time_s());
  EXPECT_EQ(fast.hydraulics_stats().solves_performed, ref.hydraulics_stats().solves_performed);
  EXPECT_EQ(fast.hydraulics_stats().max_mass_residual_rel,
            ref.hydraulics_stats().max_mass_residual_rel);
  EXPECT_EQ(fast.thermal_stats().hx_evaluated, substeps * fast.cdu_count());
  EXPECT_EQ(ref.thermal_stats().hx_evaluated, 0);
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
  // ThermalEval::kScalar is the per-CDU reference path for the lane-parallel
  // kernel; a churning run must match it to the last bit (each lane performs
  // the same operations in the same order).
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
  // Five 3 s substeps per 15 s step.
  expect_counters_identical(batched, scalar, 800LL * 5);
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

/// A CDU pump held at 0 leaves that CDU's HEX with a dry hot side, so its
/// pair of lanes takes the scalar evaluate_counterflow_hx while the other
/// pairs run packed; the run still matches the reference bit for bit.
TEST(PlantThermalEvalTest, DefaultMatchesScalarThroughAStoppedCduPump) {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel batched(config);
  CoolingPlantModel scalar(config);
  scalar.set_thermal_eval(ThermalEval::kScalar);
  int dry_steps = 0;
  for (int step = 0; step < 300; ++step) {
    for (CoolingPlantModel* plant : {&batched, &scalar}) {
      if (step == 100) plant->force_cdu_pump_speed(12, 0.0);
      if (step == 130) plant->force_cdu_pump_speed(12, -1.0);
      churn_step(*plant, step, config);
    }
    expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), step);
    if (batched.outputs().cdus[12].sec_flow_m3s == 0.0) {
      ++dry_steps;
      EXPECT_EQ(batched.outputs().cdus[12].hex_duty_w, 0.0) << "step " << step;
    }
  }
  EXPECT_EQ(dry_steps, 30);
  expect_counters_identical(batched, scalar, 300LL * 5);
}

/// Frontier's per-CDU load on a plant of `config.cdu_count` CDUs, with a
/// load swing, a per-CDU imbalance and a weather ramp that stages tower
/// cells.
void per_cdu_load_step(CoolingPlantModel& plant, int step, const SystemConfig& config) {
  const int n = config.cdu_count;
  const double sys_mw = 17.0 + 9.0 * std::sin(step * 0.01);
  CoolingInputs in;
  in.cdu_heat_w.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double weight = 1.0 + 0.3 * std::sin(0.7 * i + 0.05 * step);
    in.cdu_heat_w[static_cast<std::size_t>(i)] =
        units::watts_from_mw(sys_mw) * config.cooling.cooling_efficiency * weight / 25.0;
  }
  in.wetbulb_c = 12.0 + 10.0 * std::sin(step * 0.004);
  in.system_power_w = units::watts_from_mw(sys_mw) * n / 25.0;
  plant.step(in, config.simulation.cooling_quantum_s);
}

/// Lanes come in pairs: one CDU is a lone tail lane, two fill one pair, 25
/// are twelve pairs and a tail. Each count matches the reference.
TEST(PlantThermalEvalTest, DefaultMatchesScalarAtEveryLaneCount) {
  for (const int cdus : {1, 2, 25}) {
    SCOPED_TRACE("cdu_count " + std::to_string(cdus));
    SystemConfig config = frontier_system_config();
    if (cdus != config.cdu_count) {
      config.cdu_count = cdus;
      config.rack_count = cdus * config.racks_per_cdu;
    }
    CoolingPlantModel batched(config);
    CoolingPlantModel scalar(config);
    scalar.set_thermal_eval(ThermalEval::kScalar);
    for (int step = 0; step < 300; ++step) {
      per_cdu_load_step(batched, step, config);
      per_cdu_load_step(scalar, step, config);
      if (step % 25 == 0) {
        expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), step);
      }
    }
    expect_outputs_bit_identical(batched.outputs(), scalar.outputs(), 300);
    expect_counters_identical(batched, scalar, 300LL * 5);
  }
}

/// The plant's kScalar body for one substep over the same columns:
/// evaluate_counterflow_hx and the volume update, CDU by CDU.
double reference_substep(CduColumns& c, double ua, double half_vol, double t_pri_supply_c,
                         double h) {
  const double rho_cp_pri = coolant_rho_cp(Coolant::kWater, t_pri_supply_c);
  double mix = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double rho_cp = coolant_rho_cp(Coolant::kWater, c.t_return_c[i]);
    const HxResult hx = evaluate_counterflow_hx(ua, c.t_return_c[i], rho_cp * c.q_sec_m3s[i],
                                                t_pri_supply_c, rho_cp_pri * c.q_branch_m3s[i]);
    const double d_supply = c.q_sec_m3s[i] / half_vol * (hx.hot_out_c - c.t_supply_c[i]);
    const double d_return = c.q_sec_m3s[i] / half_vol * (c.t_supply_c[i] - c.t_return_c[i]) +
                            c.heat_w[i] / (rho_cp * half_vol);
    c.t_supply_c[i] += h * d_supply;
    c.t_return_c[i] += h * d_return;
    c.duty_w[i] = hx.duty_w;
    c.pri_return_c[i] = hx.cold_out_c;
    mix += c.q_branch_m3s[i] * hx.cold_out_c;
  }
  return mix;
}

void expect_columns_bit_identical(const CduColumns& a, const CduColumns& b, int substep) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.t_supply_c[i], b.t_supply_c[i]) << "CDU " << i << ", substep " << substep;
    EXPECT_EQ(a.t_return_c[i], b.t_return_c[i]) << "CDU " << i << ", substep " << substep;
    EXPECT_EQ(a.duty_w[i], b.duty_w[i]) << "CDU " << i << ", substep " << substep;
    EXPECT_EQ(a.pri_return_c[i], b.pri_return_c[i]) << "CDU " << i << ", substep " << substep;
  }
}

/// The HEX edge cases straight through the kernel, each sharing a pair with
/// a general lane: a dry hot side, a dry cold side, balanced capacity rates
/// (equal to rounding, and exactly equal), a near-isothermal cold side
/// (C_r < 1e-12), NTU = 0 (UA = 0), and the failed checks, which must throw
/// the reference's message. 65 lanes leave a tail.
TEST(PlantThermalEvalTest, LanesMatchScalarOnHxEdgeInputs) {
  constexpr std::size_t kN = 65;
  constexpr double kUa = 450000.0;
  constexpr double kHalfVol = 0.6;
  constexpr double kPriSupplyC = 21.5;
  constexpr double kH = 3.0;
  const double rho_cp_pri = coolant_rho_cp(Coolant::kWater, kPriSupplyC);
  Rng rng(9001);
  CduColumns lanes(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    lanes.t_return_c[i] = rng.uniform(22.0, 55.0);
    lanes.t_supply_c[i] = rng.uniform(20.0, 50.0);
    const double rho_cp = coolant_rho_cp(Coolant::kWater, lanes.t_return_c[i]);
    lanes.q_sec_m3s[i] = rng.uniform(1e4, 2e5) / rho_cp;
    lanes.q_branch_m3s[i] = rng.uniform(1e4, 2e5) / rho_cp_pri;
    lanes.heat_w[i] = rng.uniform(0.0, 1e6);
  }
  lanes.q_sec_m3s[10] = 0.0;     // dry hot side
  lanes.q_branch_m3s[21] = -1.0;  // dry cold side
  // Capacity rates equal to rounding: the balanced limit.
  lanes.q_branch_m3s[30] = lanes.q_sec_m3s[30] *
                           coolant_rho_cp(Coolant::kWater, lanes.t_return_c[30]) / rho_cp_pri;
  // Exactly equal rates: the same flow at the primary supply temperature.
  lanes.t_return_c[33] = kPriSupplyC;
  lanes.q_branch_m3s[33] = lanes.q_sec_m3s[33];
  lanes.q_branch_m3s[41] = lanes.q_sec_m3s[41] * 1e-14;  // C_r < 1e-12
  {
    const double c_sec = coolant_rho_cp(Coolant::kWater, lanes.t_return_c[30]) *
                         lanes.q_sec_m3s[30];
    const double c_pri = rho_cp_pri * lanes.q_branch_m3s[30];
    ASSERT_LT(std::abs(1.0 - std::min(c_sec, c_pri) / std::max(c_sec, c_pri)), 1e-9);
  }
  for (std::size_t i = 0; i < kN; ++i) lanes.sec_rate[i] = lanes.q_sec_m3s[i] / kHalfVol;

  CduColumns ref = lanes;
  for (int s = 0; s < 3; ++s) {
    const double mix = lanes.substep(kUa, kHalfVol, kPriSupplyC, kH);
    const double ref_mix = reference_substep(ref, kUa, kHalfVol, kPriSupplyC, kH);
    EXPECT_EQ(mix, ref_mix) << "substep " << s;
    expect_columns_bit_identical(lanes, ref, s);
  }
  EXPECT_EQ(lanes.duty_w[10], 0.0);
  EXPECT_EQ(lanes.duty_w[21], 0.0);
  // NTU = 0 in every lane: no duty, and the same bits.
  const double mix = lanes.substep(0.0, kHalfVol, kPriSupplyC, kH);
  EXPECT_EQ(mix, reference_substep(ref, 0.0, kHalfVol, kPriSupplyC, kH));
  expect_columns_bit_identical(lanes, ref, 3);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(lanes.duty_w[i], 0.0) << "CDU " << i;

  // A failed check throws the reference's error.
  auto message = [](auto&& run) {
    try {
      run();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  CduColumns bad_ua = lanes;
  CduColumns bad_ua_ref = lanes;
  const std::string ua_error = message([&] { bad_ua.substep(-1.0, kHalfVol, kPriSupplyC, kH); });
  EXPECT_EQ(ua_error, "config error: UA must be non-negative");
  EXPECT_EQ(ua_error,
            message([&] { reference_substep(bad_ua_ref, -1.0, kHalfVol, kPriSupplyC, kH); }));
  CduColumns bad_t = lanes;
  bad_t.t_return_c[5] = std::numeric_limits<double>::quiet_NaN();
  CduColumns bad_t_ref = bad_t;
  const std::string ntu_error = message([&] { bad_t.substep(kUa, kHalfVol, kPriSupplyC, kH); });
  EXPECT_EQ(ntu_error, "config error: NTU must be non-negative");
  EXPECT_EQ(ntu_error,
            message([&] { reference_substep(bad_t_ref, kUa, kHalfVol, kPriSupplyC, kH); }));
}

}  // namespace
}  // namespace exadigit
