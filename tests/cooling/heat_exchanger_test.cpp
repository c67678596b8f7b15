#include "cooling/heat_exchanger.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exadigit {
namespace {

TEST(EffectivenessTest, ZeroNtuIsZero) {
  EXPECT_DOUBLE_EQ(counterflow_effectiveness(0.0, 0.5), 0.0);
}

TEST(EffectivenessTest, CondenserLimitCrZero) {
  // Cr -> 0: eps = 1 - exp(-NTU).
  EXPECT_NEAR(counterflow_effectiveness(2.0, 0.0), 1.0 - std::exp(-2.0), 1e-12);
}

TEST(EffectivenessTest, BalancedLimitCrOne) {
  // Cr = 1: eps = NTU / (1 + NTU).
  EXPECT_NEAR(counterflow_effectiveness(3.0, 1.0), 0.75, 1e-12);
}

TEST(EffectivenessTest, GeneralFormulaSpotCheck) {
  // NTU = 2, Cr = 0.5: eps = (1 - e^-1) / (1 - 0.5 e^-1).
  const double e = std::exp(-1.0);
  EXPECT_NEAR(counterflow_effectiveness(2.0, 0.5), (1.0 - e) / (1.0 - 0.5 * e), 1e-12);
}

TEST(EffectivenessTest, ContinuityNearCrOne) {
  const double near = counterflow_effectiveness(3.0, 1.0 - 1e-10);
  const double at = counterflow_effectiveness(3.0, 1.0);
  EXPECT_NEAR(near, at, 1e-6);
}

TEST(EffectivenessTest, MonotoneInNtuDecreasingInCr) {
  double prev = 0.0;
  for (double ntu = 0.5; ntu <= 10.0; ntu += 0.5) {
    const double eps = counterflow_effectiveness(ntu, 0.7);
    EXPECT_GT(eps, prev);
    prev = eps;
  }
  for (double ntu : {1.0, 3.0, 6.0}) {
    double prev_eps = 2.0;
    for (double cr = 0.0; cr <= 1.0; cr += 0.1) {
      const double eps = counterflow_effectiveness(ntu, cr);
      EXPECT_LE(eps, prev_eps + 1e-12);
      prev_eps = eps;
    }
  }
}

TEST(EffectivenessTest, Validation) {
  EXPECT_THROW(counterflow_effectiveness(-1.0, 0.5), ConfigError);
  EXPECT_THROW(counterflow_effectiveness(1.0, 1.5), ConfigError);
}

TEST(HxTest, EnergyBalanceBothSides) {
  const HxResult r = evaluate_counterflow_hx(300e3, 40.0, 120e3, 26.0, 50e3);
  // Duty removed from the hot side equals duty added to the cold side.
  EXPECT_NEAR((40.0 - r.hot_out_c) * 120e3, r.duty_w, 1e-6);
  EXPECT_NEAR((r.cold_out_c - 26.0) * 50e3, r.duty_w, 1e-6);
  EXPECT_GT(r.duty_w, 0.0);
}

TEST(HxTest, SecondLawRespected) {
  const HxResult r = evaluate_counterflow_hx(500e3, 40.0, 100e3, 26.0, 80e3);
  // Hot side cannot cool below the cold inlet; cold side cannot heat above
  // the hot inlet.
  EXPECT_GE(r.hot_out_c, 26.0);
  EXPECT_LE(r.cold_out_c, 40.0);
  EXPECT_LE(r.duty_w, std::min(100e3, 80e3) * (40.0 - 26.0) + 1e-9);
}

TEST(HxTest, NoTransferWhenColdHotterThanHot) {
  // Duty clamps at zero rather than reversing (dedicated HX orientation).
  const HxResult r = evaluate_counterflow_hx(300e3, 20.0, 100e3, 30.0, 100e3);
  EXPECT_DOUBLE_EQ(r.duty_w, 0.0);
  EXPECT_DOUBLE_EQ(r.hot_out_c, 20.0);
  EXPECT_DOUBLE_EQ(r.cold_out_c, 30.0);
}

TEST(HxTest, DrySideShortCircuits) {
  const HxResult r = evaluate_counterflow_hx(300e3, 40.0, 0.0, 26.0, 50e3);
  EXPECT_DOUBLE_EQ(r.duty_w, 0.0);
  EXPECT_DOUBLE_EQ(r.hot_out_c, 40.0);
  const HxResult r2 = evaluate_counterflow_hx(0.0, 40.0, 100e3, 26.0, 50e3);
  EXPECT_DOUBLE_EQ(r2.duty_w, 0.0);
}

TEST(HxTest, MoreUaMovesMoreHeat) {
  const HxResult small = evaluate_counterflow_hx(100e3, 40.0, 100e3, 26.0, 100e3);
  const HxResult big = evaluate_counterflow_hx(600e3, 40.0, 100e3, 26.0, 100e3);
  EXPECT_GT(big.duty_w, small.duty_w);
}

TEST(HxTest, Hex1600SizedForFrontierCdu) {
  // The HEX-1600 at design-ish conditions must move ~1 MW-class duty with
  // realistic temperatures (paper Fig. 5 loop).
  const double c_sec = 131e3;  // ~500 gpm
  const double c_pri = 55e3;   // ~210 gpm branch
  const HxResult r = evaluate_counterflow_hx(300e3, 40.0, c_sec, 26.0, c_pri);
  EXPECT_GT(r.duty_w, 0.6e6);
  EXPECT_GT(r.effectiveness, 0.9);
}

/// Property: duty is symmetric under swapping which side is Cmin, and
/// bounded by eps * Cmin * dT for random operating points.
class HxProperty : public ::testing::TestWithParam<int> {};

TEST_P(HxProperty, DutyBoundedByThermodynamicLimit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  for (int i = 0; i < 50; ++i) {
    const double ua = rng.uniform(1e4, 1e6);
    const double hot_in = rng.uniform(30.0, 60.0);
    const double cold_in = rng.uniform(5.0, hot_in);
    const double c_hot = rng.uniform(1e4, 2e5);
    const double c_cold = rng.uniform(1e4, 2e5);
    const HxResult r = evaluate_counterflow_hx(ua, hot_in, c_hot, cold_in, c_cold);
    const double q_max = std::min(c_hot, c_cold) * (hot_in - cold_in);
    EXPECT_GE(r.duty_w, 0.0);
    EXPECT_LE(r.duty_w, q_max + 1e-9);
    EXPECT_GE(r.effectiveness, 0.0);
    EXPECT_LE(r.effectiveness, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HxProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace exadigit
