#include "controls/staging.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace exadigit {
namespace {

SpeedStagingController::Config speed_cfg() {
  SpeedStagingController::Config c;
  c.min_units = 1;
  c.max_units = 4;
  c.up_threshold = 0.92;
  c.down_threshold = 0.45;
  c.min_interval_s = 300.0;
  return c;
}

TEST(SpeedStagingTest, StagesUpAboveThreshold) {
  SpeedStagingController s(speed_cfg(), 2);
  EXPECT_EQ(s.update(0.95, 15.0), 3);
}

TEST(SpeedStagingTest, StagesDownBelowThreshold) {
  SpeedStagingController s(speed_cfg(), 2);
  EXPECT_EQ(s.update(0.40, 15.0), 1);
}

TEST(SpeedStagingTest, HoldsInsideBand) {
  SpeedStagingController s(speed_cfg(), 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.update(0.70, 15.0), 2);
}

TEST(SpeedStagingTest, DwellPreventsShortCycling) {
  SpeedStagingController s(speed_cfg(), 2);
  EXPECT_EQ(s.update(0.95, 15.0), 3);
  // Signal still high, but the dwell blocks immediate re-staging.
  for (double t = 15.0; t < 300.0; t += 15.0) {
    EXPECT_EQ(s.update(0.95, 15.0), 3);
  }
  EXPECT_EQ(s.update(0.95, 15.0), 4);
}

TEST(SpeedStagingTest, RespectsUnitLimits) {
  SpeedStagingController s(speed_cfg(), 4);
  EXPECT_EQ(s.update(0.99, 15.0), 4);  // already at max
  SpeedStagingController s2(speed_cfg(), 1);
  EXPECT_EQ(s2.update(0.10, 15.0), 1);  // already at min
}

TEST(SpeedStagingTest, ResetClampsAndRearms) {
  SpeedStagingController s(speed_cfg(), 2);
  s.reset(9);
  EXPECT_EQ(s.staged(), 4);
  s.reset(0);
  EXPECT_EQ(s.staged(), 1);
  EXPECT_EQ(s.update(0.95, 15.0), 2);  // immediate action allowed after reset
}

TEST(SpeedStagingTest, ConfigValidation) {
  auto bad = speed_cfg();
  bad.up_threshold = 0.4;  // below down threshold
  EXPECT_THROW(SpeedStagingController(bad, 1), ConfigError);
  EXPECT_THROW(SpeedStagingController(speed_cfg(), 9), ConfigError);
  SpeedStagingController ok(speed_cfg(), 2);
  EXPECT_THROW(ok.update(0.5, 0.0), ConfigError);
}

BandStagingController::Config band_cfg() {
  BandStagingController::Config c;
  c.min_units = 2;
  c.max_units = 20;
  c.band = 1.5;
  c.min_interval_s = 600.0;
  c.use_gradient = true;
  return c;
}

TEST(BandStagingTest, StagesUpWhenHotAndRising) {
  BandStagingController s(band_cfg(), 8);
  s.update(27.0, 26.0, 15.0);             // prime gradient
  EXPECT_EQ(s.update(28.0, 26.0, 15.0), 9);  // hot + rising
}

TEST(BandStagingTest, GradientBlocksStagingWhenRecovering) {
  BandStagingController s(band_cfg(), 8);
  s.update(29.0, 26.0, 15.0);
  // Still above band but falling: the paper's HTWS-gradient rule holds the
  // tower count (Section III-C5).
  EXPECT_EQ(s.update(28.5, 26.0, 15.0), 8);
}

TEST(BandStagingTest, StagesDownWhenColdAndFalling) {
  BandStagingController s(band_cfg(), 8);
  s.update(24.5, 26.0, 15.0);
  EXPECT_EQ(s.update(24.0, 26.0, 15.0), 7);
}

TEST(BandStagingTest, HoldsInsideBand) {
  BandStagingController s(band_cfg(), 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.update(26.5, 26.0, 15.0), 8);
  }
}

TEST(BandStagingTest, DwellEnforced) {
  BandStagingController s(band_cfg(), 8);
  s.update(27.0, 26.0, 15.0);
  EXPECT_EQ(s.update(28.0, 26.0, 15.0), 9);
  // Hot and rising, but inside the dwell window.
  EXPECT_EQ(s.update(29.0, 26.0, 15.0), 9);
}

TEST(BandStagingTest, GradientDisabled) {
  auto cfg = band_cfg();
  cfg.use_gradient = false;
  BandStagingController s(cfg, 8);
  s.update(29.0, 26.0, 15.0);
  // Falling but still hot: without the gradient rule it stages up.
  EXPECT_EQ(s.update(28.5, 26.0, 15.0), 9);
}

/// Feeds `value` moving at `rate` per second in 15 s steps for `seconds`,
/// starting from `start` (one priming sample first); returns the counts.
std::vector<int> staged_along_ramp(BandStagingController& s, double start, double rate,
                                   double seconds) {
  std::vector<int> counts;
  double value = start;
  s.update(value, 26.0, 15.0);
  for (double t = 15.0; t <= seconds; t += 15.0) {
    value += rate * 15.0;
    counts.push_back(s.update(value, 26.0, 15.0));
  }
  return counts;
}

TEST(BandStagingTest, SlowDecayAboveBandStagesUpEachInterval) {
  // Hot and settling slower than the deadband: not a recovery, so the
  // cells keep staging up, one per minimum interval.
  BandStagingController s(band_cfg(), 8);
  const double rate = -0.5 * BandStagingController::kTrendDeadband;
  const std::vector<int> counts = staged_along_ramp(s, 29.0, rate, 1200.0);
  EXPECT_EQ(counts.front(), 9);  // first sample after priming
  EXPECT_EQ(counts[39], 9);      // 585 s after that action: dwell
  EXPECT_EQ(counts[40], 10);     // 600 s: the next stage
  EXPECT_EQ(counts.back(), 10);
}

TEST(BandStagingTest, FastFallAboveBandHolds) {
  BandStagingController s(band_cfg(), 8);
  const double rate = -2.0 * BandStagingController::kTrendDeadband;
  for (const int n : staged_along_ramp(s, 29.0, rate, 1200.0)) EXPECT_EQ(n, 8);
}

TEST(BandStagingTest, SlowRiseBelowBandStagesDownEachInterval) {
  BandStagingController s(band_cfg(), 8);
  const double rate = 0.5 * BandStagingController::kTrendDeadband;
  const std::vector<int> counts = staged_along_ramp(s, 23.0, rate, 1200.0);
  EXPECT_EQ(counts.front(), 7);
  EXPECT_EQ(counts[39], 7);
  EXPECT_EQ(counts[40], 6);
  EXPECT_EQ(counts.back(), 6);
}

TEST(BandStagingTest, FastRiseBelowBandHolds) {
  BandStagingController s(band_cfg(), 8);
  const double rate = 2.0 * BandStagingController::kTrendDeadband;
  for (const int n : staged_along_ramp(s, 23.0, rate, 1200.0)) EXPECT_EQ(n, 8);
}

TEST(BandStagingTest, Validation) {
  auto bad = band_cfg();
  bad.band = 0.0;
  EXPECT_THROW(BandStagingController(bad, 5), ConfigError);
  EXPECT_THROW(BandStagingController(band_cfg(), 1), ConfigError);  // below min
}

/// Property: staged count always stays within [min, max] under random
/// signal walks, for several controller geometries.
class StagingBoundsProperty : public ::testing::TestWithParam<int> {};

TEST_P(StagingBoundsProperty, AlwaysWithinLimits) {
  auto cfg = speed_cfg();
  cfg.max_units = GetParam();
  cfg.min_interval_s = 30.0;
  SpeedStagingController s(cfg, 1);
  double x = 0.5;
  for (int i = 0; i < 5000; ++i) {
    x += std::sin(i * 0.7) * 0.3;
    x = std::fmod(std::abs(x), 1.0);
    const int n = s.update(x, 15.0);
    EXPECT_GE(n, cfg.min_units);
    EXPECT_LE(n, cfg.max_units);
  }
}

INSTANTIATE_TEST_SUITE_P(MaxUnits, StagingBoundsProperty, ::testing::Values(2, 4, 8, 20));

}  // namespace
}  // namespace exadigit
