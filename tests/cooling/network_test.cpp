#include "cooling/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exadigit {
namespace {

/// Pump + single resistance: analytic operating point.
TEST(NetworkTest, SingleLoopMatchesAnalyticSolution) {
  const double h0 = 300e3;
  const double coeff = 1e7;
  const double k = 2e7;
  SeriesParallelLoop loop(h0, coeff);
  loop.add_series(k);
  loop.evaluate();
  // h0 - coeff q^2 = k q^2  ->  q = sqrt(h0 / (coeff + k)).
  const double q_expected = std::sqrt(h0 / (coeff + k));
  EXPECT_NEAR(loop.flow_m3s(), q_expected, 1e-15);
  EXPECT_NEAR(loop.pump_rise_pa(), k * q_expected * q_expected, 1e-9);
  EXPECT_NEAR(loop.pump_rise_pa(), h0 - coeff * q_expected * q_expected, 1e-9);
  EXPECT_DOUBLE_EQ(loop.inlet_pressure_pa(0), loop.pump_rise_pa());
}

TEST(NetworkTest, MassConservedAtEveryNode) {
  SeriesParallelLoop loop(250e3, 5e6);
  loop.add_series(1e7);
  const BranchId r1 = loop.add_parallel(3e7);
  const BranchId r2 = loop.add_parallel(3e7);
  loop.evaluate();
  // Parallel identical branches split evenly, and together carry the loop
  // flow.
  EXPECT_EQ(loop.branch_flow_m3s(r1), loop.branch_flow_m3s(r2));
  EXPECT_NEAR(loop.branch_flow_m3s(r1) + loop.branch_flow_m3s(r2), loop.flow_m3s(), 1e-15);
  EXPECT_LE(loop.mass_residual_rel(), 1e-15);
}

TEST(NetworkTest, ParallelBranchesQuadraticSplit) {
  // Two branches with K and 4K: q1/q2 = sqrt(4K/K) = 2.
  SeriesParallelLoop loop(200e3, 1e6);
  const BranchId r1 = loop.add_parallel(1e7);
  const BranchId r2 = loop.add_parallel(4e7);
  loop.evaluate();
  EXPECT_NEAR(loop.branch_flow_m3s(r1) / loop.branch_flow_m3s(r2), 2.0, 1e-14);
}

TEST(NetworkTest, PumpSpeedAffinityScaling) {
  // With dp ~ s^2 everywhere, flow scales linearly with speed.
  SeriesParallelLoop loop(300e3, 1e7);
  loop.add_series(2e7);
  loop.set_speed(1.0);
  loop.evaluate();
  const double q_full = loop.flow_m3s();
  loop.set_speed(0.5);
  loop.evaluate();
  EXPECT_NEAR(loop.flow_m3s(), 0.5 * q_full, 1e-15);
}

TEST(NetworkTest, ParallelPumpUnitsShareFlow) {
  SeriesParallelLoop loop(300e3, 1e7, 2);
  loop.add_series(1e6);
  loop.evaluate();
  const double q2 = loop.flow_m3s();
  loop.set_units(4);
  loop.evaluate();
  const double q4 = loop.flow_m3s();
  EXPECT_GT(q4, q2);
  EXPECT_LT(q4, 2.0 * q2);  // system curve limits the gain
}

TEST(NetworkTest, ValvePositionThrottlesFlow) {
  SeriesParallelLoop loop(300e3, 1e7);
  const BranchId valve = loop.add_parallel(1e7);
  auto flow_at = [&](double position) {
    loop.set_position(valve, position);
    loop.evaluate();
    return loop.branch_flow_m3s(valve);
  };
  const double q_open = flow_at(1.0);
  const double q_half = flow_at(0.5);
  const double q_closed = flow_at(0.005);  // held at the 0.02 minimum
  EXPECT_GT(q_open, q_half);
  EXPECT_GT(q_half, q_closed);
  EXPECT_GT(q_closed, 0.0);
  EXPECT_EQ(q_closed, flow_at(0.02));
}

/// The pumps' check valves: no speed drives water backward through the
/// bank, and flow rises monotonically with speed from zero.
TEST(NetworkTest, CheckValveBlocksReverseFlow) {
  SeriesParallelLoop loop(300e3, 1e7);
  loop.add_series(2e7);
  double prev_q = -1.0;
  for (double speed = 0.0; speed <= 1.001; speed += 0.05) {
    loop.set_speed(speed);
    loop.evaluate();
    EXPECT_GE(loop.flow_m3s(), 0.0) << "backflow at speed " << speed;
    EXPECT_GT(loop.flow_m3s(), prev_q) << "non-monotone at speed " << speed;
    prev_q = loop.flow_m3s();
  }
  EXPECT_THROW(loop.set_speed(-0.1), ConfigError);
  EXPECT_THROW(loop.set_speed(std::numeric_limits<double>::quiet_NaN()), ConfigError);
}

TEST(NetworkTest, ZeroSpeedPumpAloneGivesZeroFlow) {
  SeriesParallelLoop loop(300e3, 1e7);
  loop.add_series(2e7);
  const BranchId branch = loop.add_parallel(1e7);
  loop.set_speed(0.0);
  loop.evaluate();
  EXPECT_EQ(loop.flow_m3s(), 0.0);
  EXPECT_EQ(loop.branch_flow_m3s(branch), 0.0);
  EXPECT_EQ(loop.pump_rise_pa(), 0.0);
  EXPECT_EQ(loop.mass_residual_rel(), 0.0);
}

/// Every setter takes effect at the next evaluate(), and writing the value
/// already held leaves the result unchanged, bit for bit.
TEST(NetworkTest, SettersTrackParameterChanges) {
  SeriesParallelLoop loop(300e3, 1e7, 2);
  const BranchId pipe = loop.add_series(2e7);
  const BranchId valve = loop.add_parallel(4e7);
  loop.add_parallel(4e7);
  loop.evaluate();
  const double q0 = loop.flow_m3s();
  loop.set_speed(1.0);
  loop.set_units(2);
  loop.set_k(pipe, 2e7);
  loop.set_position(valve, 1.0);
  loop.evaluate();
  EXPECT_EQ(loop.flow_m3s(), q0);

  const std::vector<std::pair<const char*, std::function<void()>>> changes = {
      {"speed", [&] { loop.set_speed(0.9); }},
      {"units", [&] { loop.set_units(3); }},
      {"k", [&] { loop.set_k(pipe, 3e7); }},
      {"position", [&] { loop.set_position(valve, 0.5); }},
  };
  double previous = q0;
  for (const auto& [what, change] : changes) {
    change();
    loop.evaluate();
    EXPECT_NE(loop.flow_m3s(), previous) << what;
    previous = loop.flow_m3s();
  }
  EXPECT_THROW(loop.set_units(0), ConfigError);
  EXPECT_THROW(loop.set_k(pipe, 0.0), ConfigError);
}

/// A CDU-shaped loop (pump -> racks in parallel -> HEX leg): the pump's
/// head equals the drops round the loop, every rack sees the same drop, and
/// the pressure at the HEX leg's inlet is what that leg drops back to the
/// suction.
TEST(NetworkTest, PressuresFollowBranchByBranch) {
  const double h0 = 400e3;
  const double a = 2e8;
  SeriesParallelLoop loop(h0, a);
  const BranchId rack0 = loop.add_parallel(3e8, 0.01);
  const BranchId rack1 = loop.add_parallel(3e8, 0.01);
  const BranchId hex_leg = loop.add_series(1.2e8);
  loop.set_position(rack1, 0.4);  // a blocked rack
  loop.set_speed(0.8);
  loop.evaluate();

  const double q = loop.flow_m3s();
  const double rise = loop.pump_rise_pa();
  EXPECT_NEAR(rise, 0.8 * 0.8 * h0 - a * q * q, 1e-9 * rise);
  const double hex_drop = 1.2e8 * q * q;
  EXPECT_NEAR(loop.inlet_pressure_pa(hex_leg), hex_drop, 1e-9 * rise);
  const double rack_drop = rise - loop.inlet_pressure_pa(hex_leg);
  const double q0 = loop.branch_flow_m3s(rack0);
  const double q1 = loop.branch_flow_m3s(rack1);
  EXPECT_NEAR(3e8 * q0 * q0, rack_drop, 1e-9 * rise);
  EXPECT_NEAR(3e8 / (0.4 * 0.4) * q1 * q1, rack_drop, 1e-9 * rise);
  EXPECT_NEAR(q0 / q1, 1.0 / 0.4, 1e-14);
}

TEST(NetworkTest, ConstructionValidation) {
  EXPECT_THROW(SeriesParallelLoop(0.0, 1e6), ConfigError);
  EXPECT_THROW(SeriesParallelLoop(1e5, 0.0), ConfigError);
  EXPECT_THROW(SeriesParallelLoop(1e5, 1e6, 0), ConfigError);
  SeriesParallelLoop loop(1e5, 1e6);
  EXPECT_THROW(loop.add_series(-1.0), ConfigError);
  EXPECT_THROW(loop.add_parallel(0.0), ConfigError);
  EXPECT_THROW(loop.add_parallel(1e6, 0.0), ConfigError);
  // One parallel group per loop: a branch after a later series leg would
  // open a second one.
  loop.add_parallel(1e6);
  loop.add_parallel(2e6);
  loop.add_series(1e6);
  EXPECT_THROW(loop.add_parallel(1e6), ConfigError);
}

TEST(NetworkTest, EmptyNetworkRejected) {
  SeriesParallelLoop loop(1e5, 1e6);
  EXPECT_THROW(loop.evaluate(), ConfigError);
}

TEST(NetworkTest, KFromDesignRoundTrip) {
  const double k = k_from_design(150e3, 0.03);
  EXPECT_NEAR(k * 0.03 * 0.03, 150e3, 1e-6);
  EXPECT_THROW(k_from_design(0.0, 0.03), ConfigError);
}

/// Property: randomized ladder loops (pump bank + parallel rungs + return
/// pipe) satisfy the loop equations: the pump's head equals the drops round
/// the loop, every rung drops the same pressure, and mass balances at both
/// rung headers to rounding.
class RandomNetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworkProperty, ConvergesAndConservesMass) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009);
  for (int trial = 0; trial < 20; ++trial) {
    const double h0 = rng.uniform(1e5, 5e5);
    const double a = rng.uniform(1e6, 5e7);
    const int units = static_cast<int>(rng.uniform_int(1, 4));
    const double speed = rng.uniform(0.3, 1.0);
    SeriesParallelLoop loop(h0, a, units);
    loop.set_speed(speed);
    const int rungs = static_cast<int>(rng.uniform_int(1, 25));
    std::vector<double> k(static_cast<std::size_t>(rungs));
    for (int i = 0; i < rungs; ++i) {
      const double position = rng.uniform(0.05, 1.0);
      const double k_open = rng.uniform(1e6, 1e9);
      k[static_cast<std::size_t>(i)] = k_open / (position * position);
      loop.set_position(loop.add_parallel(k_open), position);
    }
    const double k_return = rng.uniform(1e5, 1e7);
    const BranchId ret = loop.add_series(k_return);
    loop.evaluate();

    const double q = loop.flow_m3s();
    ASSERT_GT(q, 0.0);
    EXPECT_LE(loop.mass_residual_rel(), 1e-12);
    const double head = speed * speed * h0 - a * (q / units) * (q / units);
    EXPECT_NEAR(loop.pump_rise_pa(), head, 1e-9 * head);
    const double rung_drop = loop.pump_rise_pa() - loop.inlet_pressure_pa(ret);
    EXPECT_NEAR(loop.inlet_pressure_pa(ret), k_return * q * q, 1e-9 * head);
    for (int i = 0; i < rungs; ++i) {
      const double qi = loop.branch_flow_m3s(static_cast<BranchId>(i));
      EXPECT_NEAR(k[static_cast<std::size_t>(i)] * qi * qi, rung_drop, 1e-9 * head);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace exadigit
