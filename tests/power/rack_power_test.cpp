#include "power/rack_power.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "raps/power_model.hpp"

namespace exadigit {
namespace {

class RackPowerTest : public ::testing::Test {
 protected:
  SystemConfig config_ = frontier_system_config();
  RackPowerModel model_{config_.rack, config_.power};
};

TEST_F(RackPowerTest, GroupGeometry) {
  // 32 rectifiers / 4 per group = 8 groups; 128 nodes / 8 = 16 per group.
  EXPECT_EQ(model_.groups_per_rack(), 8);
  EXPECT_EQ(model_.nodes_per_group(), 16);
}

TEST_F(RackPowerTest, SwitchesIncludedAtRackLevel) {
  // Every node idle at 626 W (Eq. (3) at zero utilization).
  const UniformLoadPower idle = uniform_load_power(config_, 0.0, 0.0);
  // Eq. (4): 32 switches x 250 W per rack, drawn through the rectifier stage.
  EXPECT_DOUBLE_EQ(idle.breakdown.switches_w / config_.rack_count, 8000.0);
  EXPECT_GT(idle.sample.system_power_w - idle.breakdown.cdu_pumps_w,
            idle.sample.node_output_w + idle.breakdown.switches_w);
}

TEST_F(RackPowerTest, InputMonotoneInActiveNodes) {
  // The first `active` nodes draw 2704 W each, the others nothing.
  double prev = 0.0;
  for (int active = 0; active <= 128; active += 16) {
    std::vector<double> groups(8, 0.0);
    for (int g = 0; g < active / 16; ++g) groups[static_cast<std::size_t>(g)] = 2704.0 * 16.0;
    const double input = model_.from_group_outputs(groups).input_w;
    EXPECT_GE(input, prev);
    prev = input;
  }
}

TEST_F(RackPowerTest, GroupCountValidation) {
  std::vector<double> wrong(7, 1000.0);
  EXPECT_THROW(model_.from_group_outputs(wrong), ConfigError);
}

TEST(SystemPowerTest, PeakMatchesPaper28MW) {
  const UniformLoadPower peak = uniform_load_power(frontier_system_config(), 1.0, 1.0);
  // Paper Section III-B2: peak utilization consumes 28.2 MW.
  EXPECT_NEAR(peak.sample.system_power_w / 1e6, 28.2, 0.15);
}

TEST(SystemPowerTest, CduPumpConstant) {
  const UniformLoadPower idle = uniform_load_power(frontier_system_config(), 0.0, 0.0);
  // 25 CDUs x 8.7 kW = 217.5 kW (paper Section III-B2).
  EXPECT_DOUBLE_EQ(idle.breakdown.cdu_pumps_w, 217500.0);
}

TEST(SystemPowerTest, BreakdownSumsToSystemPower) {
  for (double util : {0.0, 0.4, 1.0}) {
    const UniformLoadPower p = uniform_load_power(frontier_system_config(), util, util);
    const double system = p.sample.system_power_w;
    EXPECT_NEAR(p.breakdown.total_w(), system, system * 1e-9) << "util " << util;
  }
}

TEST(SystemPowerTest, GpusDominateBreakdownAtPeak) {
  // Paper Fig. 4: GPUs are by far the largest consumer at peak.
  const PowerBreakdown b = uniform_load_power(frontier_system_config(), 1.0, 1.0).breakdown;
  EXPECT_GT(b.gpus_w, b.cpus_w);
  EXPECT_GT(b.gpus_w, 0.6 * b.total_w());
  EXPECT_GT(b.cpus_w, b.switches_w);
  EXPECT_GT(b.rectifier_loss_w, b.sivoc_loss_w);
  EXPECT_GT(b.rectifier_loss_w + b.sivoc_loss_w, 1.0e6);  // MW-scale losses
}

TEST(SystemPowerTest, LossesRoughly6PercentAtTypicalLoad) {
  const PowerBreakdown b = uniform_load_power(frontier_system_config(), 0.38, 0.62).breakdown;
  const double loss_frac = (b.rectifier_loss_w + b.sivoc_loss_w) / b.total_w();
  // Paper Table IV: loss between 6.26 % and 8.36 %, avg 6.74 %.
  EXPECT_GT(loss_frac, 0.05);
  EXPECT_LT(loss_frac, 0.09);
}

}  // namespace
}  // namespace exadigit
