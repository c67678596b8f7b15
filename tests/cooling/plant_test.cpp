#include "cooling/plant.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {
namespace {

class PlantTest : public ::testing::Test {
 protected:
  SystemConfig config_ = frontier_system_config();

  /// Steps the plant to steady state under a uniform system load.
  PlantOutputs settle(CoolingPlantModel& plant, double system_mw, double wetbulb_c,
                      double hours = 5.0) {
    CoolingInputs in;
    const double heat =
        units::watts_from_mw(system_mw) * config_.cooling.cooling_efficiency /
        config_.cdu_count;
    in.cdu_heat_w.assign(static_cast<std::size_t>(config_.cdu_count), heat);
    in.wetbulb_c = wetbulb_c;
    in.system_power_w = units::watts_from_mw(system_mw);
    const int steps = static_cast<int>(hours * 3600.0 / config_.cooling.step_s);
    for (int i = 0; i < steps; ++i) plant.step(in, config_.cooling.step_s);
    return plant.outputs();
  }
};

TEST_F(PlantTest, SteadyStateEnergyBalance) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs out = settle(plant, 17.0, 16.0);
  const double heat_in = 17.0e6 * config_.cooling.cooling_efficiency;
  // All heat entering the CDUs leaves through the HEX bank at steady state.
  EXPECT_NEAR(out.total_hex_duty_w(), heat_in, heat_in * 0.02);
}

TEST_F(PlantTest, FlowsInPaperBands) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs out = settle(plant, 17.0, 16.0);
  // Paper Section III-C1: HTWPs 5000-6000 gpm, CTWPs 9000-10000 gpm.
  const double pri_gpm = units::gpm_from_m3s(out.pri_flow_m3s);
  EXPECT_GT(pri_gpm, 4200.0);
  EXPECT_LT(pri_gpm, 6500.0);
  // Secondary loops near their 500 gpm design point.
  for (const auto& c : out.cdus) {
    const double gpm = units::gpm_from_m3s(c.sec_flow_m3s);
    EXPECT_GT(gpm, 300.0);
    EXPECT_LT(gpm, 600.0);
  }
}

TEST_F(PlantTest, TemperatureOrderingPhysical) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs out = settle(plant, 17.0, 16.0);
  // Heat flows downhill: rack return > rack supply > HTWS > basin > wetbulb.
  const CduOutputs& c = out.cdus[0];
  EXPECT_GT(c.sec_return_t_c, c.sec_supply_t_c);
  EXPECT_GT(c.sec_supply_t_c, out.pri_supply_t_c);
  EXPECT_GT(out.pri_return_t_c, out.pri_supply_t_c);
  EXPECT_GT(out.pri_supply_t_c, out.ct_supply_t_c);
  EXPECT_GT(out.ct_return_t_c, out.ct_supply_t_c);
  EXPECT_GT(out.ct_supply_t_c, 16.0);
}

TEST_F(PlantTest, SecondarySupplyNearSetpoint) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs out = settle(plant, 15.0, 14.0, 6.0);
  // The CDU valve PID holds the secondary supply near its 32 C setpoint at
  // moderate load and cool weather.
  EXPECT_NEAR(out.cdus[0].sec_supply_t_c, config_.cooling.cdu.supply_setpoint_c, 2.5);
}

TEST_F(PlantTest, PueInFrontierBand) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs out = settle(plant, 17.0, 16.0);
  EXPECT_GT(out.pue, 1.005);
  EXPECT_LT(out.pue, 1.06);
}

TEST_F(PlantTest, PueWorsensAtLowLoad) {
  CoolingPlantModel low(config_);
  low.reset(20.0);
  const double pue_low = settle(low, 8.0, 16.0).pue;
  CoolingPlantModel high(config_);
  high.reset(20.0);
  const double pue_high = settle(high, 24.0, 16.0).pue;
  // Fixed auxiliary floor: lighter IT load -> worse PUE.
  EXPECT_GT(pue_low, pue_high - 5e-3);
}

TEST_F(PlantTest, HotterWeatherRaisesSupplyTemps) {
  CoolingPlantModel cool(config_);
  cool.reset(12.0);
  const PlantOutputs a = settle(cool, 17.0, 10.0);
  CoolingPlantModel hot(config_);
  hot.reset(24.0);
  const PlantOutputs b = settle(hot, 17.0, 24.0);
  // The paper's weather use case: wet bulb propagates into the loops.
  EXPECT_GT(b.ct_supply_t_c, a.ct_supply_t_c);
  EXPECT_GT(b.cdus[0].sec_supply_t_c + 0.1, a.cdus[0].sec_supply_t_c);
}

TEST_F(PlantTest, LoadStepDrivesLaggedTransient) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  settle(plant, 10.0, 16.0, 4.0);
  const double t_before = plant.outputs().pri_return_t_c;
  // Step to 25 MW (an HPL launch, Fig. 8) and watch the return temp climb
  // smoothly rather than jump.
  CoolingInputs in;
  in.cdu_heat_w.assign(25, 25.0e6 * config_.cooling.cooling_efficiency / 25.0);
  in.wetbulb_c = 16.0;
  in.system_power_w = 25.0e6;
  plant.step(in, 15.0);
  const double t_one_step = plant.outputs().pri_return_t_c;
  EXPECT_LT(t_one_step - t_before, 1.0);  // thermal inertia
  for (int i = 0; i < 240; ++i) plant.step(in, 15.0);
  const double t_later = plant.outputs().pri_return_t_c;
  EXPECT_GT(t_later, t_before + 2.0);  // but it does rise
}

TEST_F(PlantTest, StagingRespondsToLoad) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  const PlantOutputs low = settle(plant, 6.0, 14.0);
  const int cells_low = low.ct_cells_staged;
  const PlantOutputs high = settle(plant, 26.0, 14.0);
  EXPECT_GE(high.ct_cells_staged, cells_low);
  EXPECT_GE(high.htwp_staged, 1);
  EXPECT_LE(high.htwp_staged, config_.cooling.primary.pump_count);
  EXPECT_GE(high.ehx_staged, 1);
  EXPECT_LE(high.ehx_staged, config_.cooling.primary.ehx_count);
}

TEST_F(PlantTest, OutputsCover317Channels) {
  // Paper Section III-C4: 317 outputs per step = 25 CDUs x 12 + 17.
  CoolingPlantModel plant(config_);
  const PlantOutputs& out = plant.outputs();
  EXPECT_EQ(out.cdus.size(), 25u);
  EXPECT_EQ(25 * 12 + 17, 317);
}

TEST_F(PlantTest, RackBlockageReducesBranchFlow) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  settle(plant, 17.0, 16.0, 2.0);
  const double q_before = plant.outputs().cdus[3].sec_flow_m3s;
  plant.set_rack_blockage(3, 1, 0.4);
  settle(plant, 17.0, 16.0, 1.0);
  const double q_after = plant.outputs().cdus[3].sec_flow_m3s;
  EXPECT_LT(q_after, q_before);
  // Return temperature on that CDU rises (same heat, less flow).
  EXPECT_GT(plant.outputs().cdus[3].sec_return_t_c,
            plant.outputs().cdus[4].sec_return_t_c);
}

TEST_F(PlantTest, ForcedPumpSpeedOverridesPid) {
  CoolingPlantModel plant(config_);
  plant.reset(20.0);
  plant.force_cdu_pump_speed(0, 0.5);
  settle(plant, 17.0, 16.0, 1.0);
  EXPECT_NEAR(plant.outputs().cdus[0].pump_speed, 0.5, 1e-12);
  plant.force_cdu_pump_speed(0, -1.0);  // back to PID
  settle(plant, 17.0, 16.0, 1.0);
  EXPECT_GT(plant.outputs().cdus[0].pump_speed, 0.5);
}

TEST_F(PlantTest, ResetRestoresQuiescentState) {
  CoolingPlantModel plant(config_);
  settle(plant, 25.0, 20.0, 2.0);
  plant.reset(18.0);
  EXPECT_DOUBLE_EQ(plant.time_s(), 0.0);
  EXPECT_NEAR(plant.outputs().cdus[0].sec_supply_t_c, 23.0, 1.0);
}

TEST_F(PlantTest, InputValidation) {
  CoolingPlantModel plant(config_);
  CoolingInputs bad;
  bad.cdu_heat_w.assign(10, 0.0);  // wrong CDU count
  EXPECT_THROW(plant.step(bad, 15.0), ConfigError);
  CoolingInputs ok;
  ok.cdu_heat_w.assign(25, 0.0);
  EXPECT_THROW(plant.step(ok, 0.0), ConfigError);
  EXPECT_THROW(plant.set_rack_blockage(30, 0, 0.5), ConfigError);
  EXPECT_THROW(plant.set_rack_blockage(0, 5, 0.5), ConfigError);
  EXPECT_THROW(plant.set_rack_blockage(0, 0, 0.0), ConfigError);

  // Bad boundary conditions are rejected before the step, with a message
  // naming the input (and the CDU, for heat), and leave the plant as it was.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto expect_rejected = [&](const CoolingInputs& in, const std::string& needle) {
    try {
      plant.step(in, 15.0);
      ADD_FAILURE() << "accepted input, expected a rejection naming " << needle;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
    EXPECT_EQ(plant.step_count(), 0);
  };
  for (const double heat : {nan, inf, -5.0e6}) {
    CoolingInputs in = ok;
    in.cdu_heat_w[7] = heat;
    expect_rejected(in, "cdu_heat_w of CDU 7");
  }
  for (const double wetbulb : {nan, inf, -inf}) {
    CoolingInputs in = ok;
    in.wetbulb_c = wetbulb;
    expect_rejected(in, "wetbulb_c");
  }
  for (const double power : {nan, inf, -1.0}) {
    CoolingInputs in = ok;
    in.system_power_w = power;
    expect_rejected(in, "system_power_w");
  }
  plant.step(ok, 15.0);
  EXPECT_EQ(plant.step_count(), 1);
}

/// Property sweep: the plant settles to a physical steady state across the
/// whole operating envelope (load x weather).
struct PlantOperatingPoint {
  double system_mw;
  double wetbulb_c;
};

class PlantEnvelopeProperty : public ::testing::TestWithParam<PlantOperatingPoint> {};

TEST_P(PlantEnvelopeProperty, SettlesPhysically) {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel plant(config);
  plant.reset(GetParam().wetbulb_c + 4.0);
  CoolingInputs in;
  const double heat = units::watts_from_mw(GetParam().system_mw) *
                      config.cooling.cooling_efficiency / config.cdu_count;
  in.cdu_heat_w.assign(25, heat);
  in.wetbulb_c = GetParam().wetbulb_c;
  in.system_power_w = units::watts_from_mw(GetParam().system_mw);
  for (int i = 0; i < 3 * 240; ++i) plant.step(in, 15.0);
  // At-capacity operating points hunt slowly (staging limit cycles), so
  // the balance check uses the time-averaged duty over the final hour.
  double duty_accum = 0.0;
  for (int i = 0; i < 240; ++i) {
    plant.step(in, 15.0);
    duty_accum += plant.outputs().total_hex_duty_w();
  }
  const PlantOutputs& out = plant.outputs();
  // Energy balance within 5 % everywhere in the envelope.
  EXPECT_NEAR(duty_accum / 240.0, heat * 25.0, heat * 25.0 * 0.05);
  // Temperatures stay in liquid-cooling range.
  EXPECT_GT(out.pri_supply_t_c, 5.0);
  EXPECT_LT(out.pri_return_t_c, 70.0);
  EXPECT_LT(out.cdus[0].sec_return_t_c, 75.0);
  // PUE well-formed.
  EXPECT_GT(out.pue, 1.0);
  EXPECT_LT(out.pue, 1.15);
}

INSTANTIATE_TEST_SUITE_P(
    Envelope, PlantEnvelopeProperty,
    ::testing::Values(PlantOperatingPoint{7.5, 2.0}, PlantOperatingPoint{7.5, 24.0},
                      PlantOperatingPoint{17.0, 10.0}, PlantOperatingPoint{17.0, 24.0},
                      PlantOperatingPoint{27.0, 2.0}, PlantOperatingPoint{27.0, 22.0}));

}  // namespace
}  // namespace exadigit
