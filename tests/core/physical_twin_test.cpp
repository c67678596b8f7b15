#include "core/physical_twin.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "raps/uq.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

TimeSeries flat_wetbulb(double duration_s, double value_c) {
  const std::size_t n = static_cast<std::size_t>(duration_s / 60.0) + 2;
  return TimeSeries::uniform(0.0, 60.0, std::vector<double>(n, value_c));
}

class PhysicalTwinTest : public ::testing::Test {
 protected:
  SystemConfig spec_ = frontier_system_config();
  PhysicalTwinOptions options_;
};

TEST_F(PhysicalTwinTest, PerturbationChangesPlantNotSchema) {
  const SystemConfig physical = perturb_physical_config(spec_, options_);
  EXPECT_EQ(physical.total_nodes(), spec_.total_nodes());
  EXPECT_LT(physical.power.rectifier_efficiency(7500.0),
            spec_.power.rectifier_efficiency(7500.0));
  EXPECT_LT(physical.cooling.cdu.hex.ua_w_per_k, spec_.cooling.cdu.hex.ua_w_per_k);
  EXPECT_GT(physical.cooling.cdu.pump.design_head_pa, spec_.cooling.cdu.pump.design_head_pa);
  EXPECT_NO_THROW(physical.validate());
}

TEST_F(PhysicalTwinTest, PerturbationsKeepCurveExtrapolation) {
  const PiecewiseLinearCurve& rect = spec_.power.rectifier_efficiency;
  spec_.power.rectifier_efficiency =
      PiecewiseLinearCurve(rect.xs(), rect.ys(), Extrapolation::kLinear);
  EXPECT_EQ(perturb_physical_config(spec_, options_).power.rectifier_efficiency.extrapolation(),
            Extrapolation::kLinear);
  Rng rng(7);
  EXPECT_EQ(perturb_config(spec_, UqConfig{}, rng).power.rectifier_efficiency.extrapolation(),
            Extrapolation::kLinear);
}

TEST_F(PhysicalTwinTest, RecordedDatasetFollowsTableII) {
  SyntheticPhysicalTwin twin(spec_, options_);
  const double duration = 2.0 * units::kSecondsPerHour;
  std::vector<JobRecord> jobs = {make_constant_job(120.0, 1800.0, 2000, 0.4, 0.6),
                                 make_hpl_job(3600.0, 1800.0)};
  const TelemetryDataset d = twin.record(jobs, flat_wetbulb(duration, 15.0), duration);

  EXPECT_EQ(d.system_name, "frontier");
  EXPECT_DOUBLE_EQ(d.duration_s, duration);
  ASSERT_EQ(d.jobs.size(), 2u);
  // Replay datasets carry realized start times.
  for (const auto& j : d.jobs) EXPECT_TRUE(j.is_replay());
  EXPECT_EQ(d.cdus.size(), 25u);
  EXPECT_FALSE(d.measured_system_power_w.empty());
  EXPECT_FALSE(d.cdus[0].rack_power_w.empty());
  EXPECT_FALSE(d.cdus[0].supply_temp_c.empty());
  EXPECT_FALSE(d.facility.pue.empty());
  // Facility channels resampled to coarser Table II rates.
  EXPECT_GE(d.facility.htw_supply_temp_c.time(1) - d.facility.htw_supply_temp_c.time(0),
            59.0);
  EXPECT_NO_THROW(d.validate());
}

TEST_F(PhysicalTwinTest, SensorNoisePresentButBounded) {
  SyntheticPhysicalTwin twin(spec_, options_);
  std::vector<JobRecord> jobs = {make_constant_job(60.0, 5400.0, 5000, 0.5, 0.7)};
  const double duration = 1.5 * units::kSecondsPerHour;
  const TelemetryDataset d = twin.record(jobs, flat_wetbulb(duration, 15.0), duration);
  // Steady load after spin-up: consecutive noisy power samples differ, but
  // only at the configured noise scale.
  const TimeSeries& p = d.measured_system_power_w;
  double diffs = 0.0;
  int n = 0;
  for (std::size_t i = p.size() / 2; i + 1 < p.size(); ++i) {
    diffs += std::abs(p.value(i + 1) - p.value(i));
    ++n;
  }
  const double mean_step = diffs / n;
  EXPECT_GT(mean_step, 0.0);
  EXPECT_LT(mean_step, p.values().back() * 4.0 * options_.sensor_noise_power_frac);
}

TEST_F(PhysicalTwinTest, DeterministicForSameSeed) {
  SyntheticPhysicalTwin a(spec_, options_);
  SyntheticPhysicalTwin b(spec_, options_);
  std::vector<JobRecord> jobs = {make_constant_job(60.0, 600.0, 500, 0.4, 0.6)};
  const TelemetryDataset da = a.record(jobs, flat_wetbulb(1800.0, 15.0), 1800.0);
  const TelemetryDataset db = b.record(jobs, flat_wetbulb(1800.0, 15.0), 1800.0);
  ASSERT_EQ(da.measured_system_power_w.size(), db.measured_system_power_w.size());
  for (std::size_t i = 0; i < da.measured_system_power_w.size(); ++i) {
    EXPECT_DOUBLE_EQ(da.measured_system_power_w.value(i),
                     db.measured_system_power_w.value(i));
  }
}

TEST_F(PhysicalTwinTest, MeasuredPowerDiffersFromSpecTwin) {
  // The physical twin's efficiency bias must be visible: measured power
  // exceeds what the spec config would predict for the same load.
  SyntheticPhysicalTwin twin(spec_, options_);
  std::vector<JobRecord> jobs = {make_constant_job(60.0, 5400.0, 9472, 1.0, 1.0)};
  const double duration = 1.0 * units::kSecondsPerHour;
  const TelemetryDataset d = twin.record(jobs, flat_wetbulb(duration, 15.0), duration);
  const double measured_peak = d.measured_system_power_w.max_value();
  // Spec predicts ~28.2 MW at peak; the physical twin runs less efficient
  // converters, so it must draw visibly more.
  EXPECT_GT(measured_peak, 28.25e6);
  EXPECT_LT(measured_peak, 29.5e6);
}

}  // namespace
}  // namespace exadigit
