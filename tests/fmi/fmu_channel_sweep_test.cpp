/// Sweeps over every output of the cooling FMU: the value-reference
/// arithmetic, the name table, and the PlantOutputs struct must agree for
/// all 25 x 12 CDU channels and the 17 plant channels — a regression fence
/// for the 317-output contract (paper Section III-C4).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/units.hpp"
#include "fmi/cooling_fmu.hpp"

namespace exadigit {
namespace {

/// The Frontier FMU after 600 steps under a non-uniform load, so per-CDU
/// channels differ: CDU k carries (400 + 20k) kW of heat.
std::unique_ptr<CoolingFmu> stepped_fmu() {
  auto fmu = std::make_unique<CoolingFmu>(frontier_system_config());
  fmu->setup_experiment(0.0);
  for (int i = 0; i < 25; ++i) {
    fmu->set_real(static_cast<ValueRef>(i), 400e3 + 20e3 * i);
  }
  fmu->set_by_name("wetbulb_c", 15.0);
  fmu->set_by_name("system_power_w", 14.0e6);
  for (int s = 0; s < 600; ++s) fmu->do_step(s * 15.0, 15.0);
  return fmu;
}

class FmuCduChannelSweep : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() { fmu_ = stepped_fmu(); }
  static void TearDownTestSuite() { fmu_.reset(); }
  static std::unique_ptr<CoolingFmu> fmu_;
};

std::unique_ptr<CoolingFmu> FmuCduChannelSweep::fmu_;

TEST_P(FmuCduChannelSweep, NamesRefsAndStructAgree) {
  const int cdu = GetParam();
  const std::string prefix = "cdu[" + std::to_string(cdu) + "].";
  const CduOutputs& o = fmu_->outputs().cdus.at(static_cast<std::size_t>(cdu));
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "pump_power_w"), o.pump_power_w);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "pump_speed"), o.pump_speed);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "sec_flow_m3s"), o.sec_flow_m3s);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "pri_flow_m3s"), o.pri_flow_m3s);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "sec_supply_t_c"), o.sec_supply_t_c);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "sec_return_t_c"), o.sec_return_t_c);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "sec_supply_p_pa"), o.sec_supply_p_pa);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "sec_return_p_pa"), o.sec_return_p_pa);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "valve_position"), o.valve_position);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "hex_duty_w"), o.hex_duty_w);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "pri_return_t_c"), o.pri_return_t_c);
  EXPECT_DOUBLE_EQ(fmu_->get_by_name(prefix + "loop_dp_pa"), o.loop_dp_pa);
}

TEST_P(FmuCduChannelSweep, ChannelsArePhysical) {
  const int cdu = GetParam();
  const std::string prefix = "cdu[" + std::to_string(cdu) + "].";
  // Return warmer than supply; flows and pressures positive; duty tracks
  // the injected per-CDU heat ramp within 10 %.
  EXPECT_GT(fmu_->get_by_name(prefix + "sec_return_t_c"),
            fmu_->get_by_name(prefix + "sec_supply_t_c"));
  EXPECT_GT(fmu_->get_by_name(prefix + "sec_flow_m3s"), 0.01);
  EXPECT_GT(fmu_->get_by_name(prefix + "pri_flow_m3s"), 0.001);
  EXPECT_GT(fmu_->get_by_name(prefix + "loop_dp_pa"), 1e4);
  EXPECT_GE(fmu_->get_by_name(prefix + "valve_position"), 0.05);
  EXPECT_LE(fmu_->get_by_name(prefix + "valve_position"), 1.0);
  const double expected_heat = 400e3 + 20e3 * cdu;
  EXPECT_NEAR(fmu_->get_by_name(prefix + "hex_duty_w"), expected_heat,
              expected_heat * 0.10);
}

TEST_P(FmuCduChannelSweep, HeavierCduRunsWarmer) {
  const int cdu = GetParam();
  if (cdu == 0) return;
  // The heat ramp across CDUs must be visible in the return temperatures.
  const std::string a = "cdu[0].sec_return_t_c";
  const std::string b = "cdu[" + std::to_string(cdu) + "].sec_return_t_c";
  if (cdu >= 12) {
    EXPECT_GT(fmu_->get_by_name(b), fmu_->get_by_name(a));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCdus, FmuCduChannelSweep, ::testing::Range(0, 25));

TEST(FmuPlantChannelSweep, NamesRefsAndStructAgree) {
  const std::unique_ptr<CoolingFmu> fmu = stepped_fmu();
  const PlantOutputs& o = fmu->outputs();
  const auto get = [&](const std::string& field) { return fmu->get_by_name("plant." + field); };
  EXPECT_DOUBLE_EQ(get("htwp_staged"), o.htwp_staged);
  EXPECT_DOUBLE_EQ(get("htwp_speed"), o.htwp_speed);
  EXPECT_DOUBLE_EQ(get("htwp_power_w"), o.htwp_power_w);
  EXPECT_DOUBLE_EQ(get("ehx_staged"), o.ehx_staged);
  EXPECT_DOUBLE_EQ(get("pri_supply_t_c"), o.pri_supply_t_c);
  EXPECT_DOUBLE_EQ(get("pri_return_t_c"), o.pri_return_t_c);
  EXPECT_DOUBLE_EQ(get("pri_flow_m3s"), o.pri_flow_m3s);
  EXPECT_DOUBLE_EQ(get("pri_dp_pa"), o.pri_dp_pa);
  EXPECT_DOUBLE_EQ(get("ct_cells_staged"), o.ct_cells_staged);
  EXPECT_DOUBLE_EQ(get("ctwp_staged"), o.ctwp_staged);
  EXPECT_DOUBLE_EQ(get("ctwp_speed"), o.ctwp_speed);
  EXPECT_DOUBLE_EQ(get("ctwp_power_w"), o.ctwp_power_w);
  EXPECT_DOUBLE_EQ(get("fan_speed"), o.fan_speed);
  EXPECT_DOUBLE_EQ(get("fan_power_w"), o.fan_power_w);
  EXPECT_DOUBLE_EQ(get("ct_supply_t_c"), o.ct_supply_t_c);
  EXPECT_DOUBLE_EQ(get("ct_return_t_c"), o.ct_return_t_c);
  EXPECT_DOUBLE_EQ(get("pue"), o.pue);
}

}  // namespace
}  // namespace exadigit
