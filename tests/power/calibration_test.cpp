/// Calibration tests pinning the paper's Table III verification numbers.
/// These are the twin's ground truth: if a refactor moves them, the
/// reproduction of the paper's RAPS V&V is broken. Each is evaluated on
/// the power model the twin runs, RapsPowerModel's incremental path.

#include <gtest/gtest.h>

#include <cmath>

#include "raps/engine.hpp"
#include "raps/power_model.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

class TableIIICalibration : public ::testing::Test {
 protected:
  SystemConfig config_ = frontier_system_config();

  [[nodiscard]] double uniform_system_power_w(double cpu_util, double gpu_util) const {
    return uniform_load_power(config_, cpu_util, gpu_util).sample.system_power_w;
  }

  /// P_system with 9216 nodes running the HPL core phase (CPU 33 %, GPU
  /// 79 %) and the rest idle, per paper Section IV-2, measured as
  /// bench_table3_verification measures it: the job starts in a RapsEngine
  /// run, on the ascending nodes its NodeAllocator hands out.
  [[nodiscard]] double hpl_core_phase_power_w() const {
    RapsEngine engine(config_);
    JobRecord hpl = make_hpl_job(0.0, 600.0, 9216);
    hpl.fixed_start_time_s = 1.0;
    engine.submit(hpl);
    engine.run_until(120.0);
    return engine.power().system_power_w;
  }
};

TEST_F(TableIIICalibration, IdlePower) {
  // Paper Table III: telemetry 7.4 MW, RAPS 7.24 MW (2.1 % error).
  const double idle_mw = uniform_system_power_w(0.0, 0.0) / 1e6;
  EXPECT_NEAR(idle_mw, 7.24, 0.10);
  const double error = std::abs(idle_mw - 7.4) / 7.4;
  EXPECT_LT(error, 0.04);
}

TEST_F(TableIIICalibration, HplCorePhasePower) {
  // Paper Table III: telemetry 21.3 MW, RAPS 22.3 MW (4.7 % error) on
  // 9216 nodes.
  const double hpl_mw = hpl_core_phase_power_w() / 1e6;
  EXPECT_NEAR(hpl_mw, 22.3, 0.25);
  const double error = std::abs(hpl_mw - 21.3) / 21.3;
  EXPECT_LT(error, 0.06);
}

TEST_F(TableIIICalibration, PeakPower) {
  // Paper Table III: telemetry 27.4 MW, RAPS 28.2 MW (3.1 % error).
  const double peak_mw = uniform_system_power_w(1.0, 1.0) / 1e6;
  EXPECT_NEAR(peak_mw, 28.2, 0.15);
  const double error = std::abs(peak_mw - 27.4) / 27.4;
  EXPECT_LT(error, 0.05);
}

TEST_F(TableIIICalibration, OrderingIdleHplPeak) {
  const double idle = uniform_system_power_w(0.0, 0.0);
  const double hpl = hpl_core_phase_power_w();
  const double peak = uniform_system_power_w(1.0, 1.0);
  EXPECT_LT(idle, hpl);
  EXPECT_LT(hpl, peak);
}

TEST_F(TableIIICalibration, RectifierOptimum963At7500W) {
  // Paper Section IV-3: "rectifiers reach an optimal efficiency of 96.3 %
  // at 7.5 kW".
  const auto& curve = config_.power.rectifier_efficiency;
  EXPECT_DOUBLE_EQ(curve(7500.0), 0.963);
  // It is the maximum of the curve.
  for (double w = 0.0; w <= 14000.0; w += 250.0) {
    EXPECT_LE(curve(w), 0.963 + 1e-12);
  }
}

TEST_F(TableIIICalibration, AverageSystemEfficiencyNear933) {
  // Paper Section IV-3: baseline AC efficiency 93.3 % over the 183-day
  // replay. Check the chain near the fleet-average operating point.
  ConversionChain chain(config_.power);
  const double avg_node_w = 1591.0;  // ~16.9 MW fleet average
  const double eta = chain.system_efficiency(16 * avg_node_w);
  EXPECT_NEAR(eta, 0.938, 0.006);
}

TEST_F(TableIIICalibration, EnergyConversionLossBand) {
  // Paper Finding 9: losses average 1.1 MW, max 1.8 MW. At the fleet
  // average the loss must land near 1 MW, at peak near 1.9 MW.
  const PowerBreakdown avg = uniform_load_power(config_, 0.38, 0.62).breakdown;
  EXPECT_NEAR((avg.rectifier_loss_w + avg.sivoc_loss_w) / 1e6, 1.0, 0.25);
  const PowerBreakdown peak = uniform_load_power(config_, 1.0, 1.0).breakdown;
  EXPECT_NEAR((peak.rectifier_loss_w + peak.sivoc_loss_w) / 1e6, 1.85, 0.35);
}

}  // namespace
}  // namespace exadigit
