#include "cooling/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exadigit {
namespace {

/// Pump + single resistance: analytic operating point.
TEST(NetworkTest, SingleLoopMatchesAnalyticSolution) {
  FlowNetwork net;
  const NodeId a = net.add_node("suction");
  const NodeId b = net.add_node("discharge");
  const double h0 = 300e3;
  const double coeff = 1e7;
  const double k = 2e7;
  const BranchId pump = net.add_pump(a, b, h0, coeff);
  net.add_resistance(b, a, k);
  const NetworkSolution sol = net.solve(0.1);
  // h0 - coeff q^2 = k q^2  ->  q = sqrt(h0 / (coeff + k)).
  const double q_expected = std::sqrt(h0 / (coeff + k));
  EXPECT_NEAR(net.flow(sol, pump), q_expected, 1e-9);
  EXPECT_NEAR(net.pressure_rise(sol, pump), k * q_expected * q_expected, 1e-3);
}

TEST(NetworkTest, MassConservedAtEveryNode) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId c = net.add_node();
  net.add_pump(a, b, 250e3, 5e6);
  net.add_resistance(b, c, 1e7);
  const BranchId r1 = net.add_resistance(c, a, 3e7);
  const BranchId r2 = net.add_resistance(c, a, 3e7);
  const NetworkSolution sol = net.solve(0.1);
  // Parallel identical branches split evenly.
  EXPECT_NEAR(net.flow(sol, r1), net.flow(sol, r2), 1e-12);
  EXPECT_LT(sol.residual_m3s, 1e-6);
}

TEST(NetworkTest, ParallelBranchesQuadraticSplit) {
  // Two branches with K and 4K: q1/q2 = sqrt(4K/K) = 2.
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_pump(a, b, 200e3, 1e6);
  const BranchId r1 = net.add_resistance(b, a, 1e7);
  const BranchId r2 = net.add_resistance(b, a, 4e7);
  const NetworkSolution sol = net.solve(0.1);
  EXPECT_NEAR(net.flow(sol, r1) / net.flow(sol, r2), 2.0, 1e-6);
}

TEST(NetworkTest, PumpSpeedAffinityScaling) {
  // With dp ~ s^2 everywhere, flow scales linearly with speed.
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId pump = net.add_pump(a, b, 300e3, 1e7);
  net.add_resistance(b, a, 2e7);
  net.set_speed(pump, 1.0);
  const double q_full = net.flow(net.solve(0.1), pump);
  net.set_speed(pump, 0.5);
  const double q_half = net.flow(net.solve(0.1), pump);
  EXPECT_NEAR(q_half, 0.5 * q_full, 1e-9);
}

TEST(NetworkTest, ParallelPumpUnitsShareFlow) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId pump = net.add_pump(a, b, 300e3, 1e7, 2);
  net.add_resistance(b, a, 1e6);
  const double q2 = net.flow(net.solve(0.5), pump);
  net.set_parallel_units(pump, 4);
  const double q4 = net.flow(net.solve(0.5), pump);
  EXPECT_GT(q4, q2);
  EXPECT_LT(q4, 2.0 * q2);  // system curve limits the gain
}

TEST(NetworkTest, ValvePositionThrottlesFlow) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_pump(a, b, 300e3, 1e7);
  const BranchId valve = net.add_valve(b, a, 1e7);
  net.set_position(valve, 1.0);
  const double q_open = net.flow(net.solve(0.1), valve);
  net.set_position(valve, 0.5);
  const double q_half = net.flow(net.solve(0.1), valve);
  net.set_position(valve, 0.05);
  const double q_closed = net.flow(net.solve(0.1), valve);
  EXPECT_GT(q_open, q_half);
  EXPECT_GT(q_half, q_closed);
  EXPECT_GT(q_closed, 0.0);
}

TEST(NetworkTest, CheckValveBlocksReverseFlow) {
  // A dead pump (speed 0) facing an adverse pressure gradient must not
  // let water flow backward.
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId live = net.add_pump(a, b, 300e3, 1e7);
  const BranchId dead = net.add_pump(a, b, 300e3, 1e7);
  net.add_resistance(b, a, 2e7);
  net.set_speed(dead, 0.0);
  const NetworkSolution sol = net.solve(0.1);
  EXPECT_GE(net.flow(sol, dead), 0.0);
  EXPECT_GT(net.flow(sol, live), 0.0);
}

TEST(NetworkTest, ZeroSpeedPumpAloneGivesZeroFlow) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId pump = net.add_pump(a, b, 300e3, 1e7);
  net.add_resistance(b, a, 2e7);
  net.set_speed(pump, 0.0);
  const NetworkSolution sol = net.solve(0.1);
  EXPECT_NEAR(net.flow(sol, pump), 0.0, 1e-9);
}

/// Regression for the check-valve characteristic: the closed branch used
/// to report a dq/ddp ~1000*n smaller than the adjacent linearized branch
/// (a jump at avail == 0 that could stall Newton). A pump held against
/// reverse head by a stronger bank must converge with zero flow.
TEST(NetworkTest, PumpHeldAgainstReverseHeadConverges) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  // Strong 4-unit bank builds a discharge head far above the weak pump's
  // shutoff, holding the weak pump's check valve closed.
  const BranchId strong = net.add_pump(a, b, 500e3, 5e6, 4);
  const BranchId weak = net.add_pump(a, b, 400e3, 1e7);
  net.add_resistance(b, a, 5e5);
  net.set_speed(weak, 0.3);  // s^2 H0 = 36 kPa vs ~300 kPa discharge head
  const NetworkSolution sol = net.solve(0.1);
  EXPECT_LT(sol.residual_m3s, 1e-6);
  EXPECT_DOUBLE_EQ(net.flow(sol, weak), 0.0);
  EXPECT_GT(net.flow(sol, strong), 0.0);

  // Sweeping the weak pump's speed across the check-valve opening boundary
  // (~0.88 for these curves) must stay convergent and monotone, with no
  // backflow anywhere — cold-started every time so each solve crosses the
  // closed/regularized/quadratic regions on its own.
  double prev_q = 0.0;
  bool opened = false;
  for (double speed = 0.0; speed <= 1.001; speed += 0.05) {
    FlowNetwork fresh;
    const NodeId fa = fresh.add_node();
    const NodeId fb = fresh.add_node();
    fresh.add_pump(fa, fb, 500e3, 5e6, 4);
    const BranchId fweak = fresh.add_pump(fa, fb, 400e3, 1e7);
    fresh.add_resistance(fb, fa, 5e5);
    fresh.set_speed(fweak, speed);
    const NetworkSolution s = fresh.solve(0.1);
    const double q = fresh.flow(s, fweak);
    EXPECT_GE(q, 0.0) << "backflow at speed " << speed;
    EXPECT_GE(q, prev_q - 1e-9) << "non-monotone opening at speed " << speed;
    if (q > 0.0) opened = true;
    prev_q = q;
  }
  EXPECT_TRUE(opened);  // the sweep really crosses the boundary
}

TEST(NetworkTest, SolveIntoMatchesSolveBitIdentical) {
  auto build = [] {
    FlowNetwork net;
    const NodeId a = net.add_node();
    const NodeId b = net.add_node();
    const NodeId c = net.add_node();
    net.add_pump(a, b, 300e3, 1e7, 2);
    net.add_valve(b, c, 1e7);
    net.add_resistance(c, a, 2e7);
    return net;
  };
  FlowNetwork by_value = build();
  FlowNetwork in_place = build();
  const NetworkSolution sol = by_value.solve(0.1);
  NetworkSolution out;
  in_place.solve_into(out, 0.1);
  ASSERT_EQ(out.node_pressure_pa.size(), sol.node_pressure_pa.size());
  for (std::size_t i = 0; i < sol.node_pressure_pa.size(); ++i) {
    EXPECT_EQ(out.node_pressure_pa[i], sol.node_pressure_pa[i]);
  }
  ASSERT_EQ(out.branch_flow_m3s.size(), sol.branch_flow_m3s.size());
  for (std::size_t i = 0; i < sol.branch_flow_m3s.size(); ++i) {
    EXPECT_EQ(out.branch_flow_m3s[i], sol.branch_flow_m3s[i]);
  }
  EXPECT_EQ(out.iterations, sol.iterations);

  // Re-solving in place at the same operating point reuses the workspace
  // and converges immediately from the warm start.
  in_place.solve_into(out, 0.1);
  EXPECT_EQ(out.iterations, 0);
  for (std::size_t i = 0; i < sol.node_pressure_pa.size(); ++i) {
    EXPECT_EQ(out.node_pressure_pa[i], sol.node_pressure_pa[i]);
  }
}

TEST(NetworkTest, SettersTrackParameterChanges) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId pump = net.add_pump(a, b, 300e3, 1e7);
  const BranchId pipe = net.add_resistance(b, a, 2e7);
  const BranchId valve = net.add_valve(b, a, 4e7);
  EXPECT_TRUE(net.parameters_changed());  // never solved
  NetworkSolution sol;
  net.solve_into(sol, 0.1);
  EXPECT_FALSE(net.parameters_changed());

  // Writing the value already held is not a change.
  net.set_speed(pump, 1.0);
  net.set_parallel_units(pump, 1);
  net.set_k(pipe, 2e7);
  net.set_position(valve, 1.0);
  net.convert_to_valve(valve, 1.0, 0.02);
  EXPECT_FALSE(net.parameters_changed());

  // Each setter's real change is one. The two conversions change one field
  // each: the pipe's kind, then the valve's minimum position.
  const std::vector<std::pair<const char*, std::function<void()>>> changes = {
      {"speed", [&] { net.set_speed(pump, 0.9); }},
      {"parallel units", [&] { net.set_parallel_units(pump, 2); }},
      {"k", [&] { net.set_k(pipe, 3e7); }},
      {"position", [&] { net.set_position(valve, 0.5); }},
      {"kind", [&] { net.convert_to_valve(pipe, 1.0, 0.02); }},
      {"min position", [&] { net.convert_to_valve(valve, 0.5, 0.01); }},
  };
  for (std::size_t i = 0; i < changes.size(); ++i) {
    changes[i].second();
    EXPECT_TRUE(net.parameters_changed()) << changes[i].first;
    // Every way of installing a converged state clears the change.
    if (i % 3 == 0) {
      net.solve_into(sol, 0.1);
    } else if (i % 3 == 1) {
      sol = net.solve(0.1);
    } else {
      net.adopt_solution(sol);
    }
    EXPECT_FALSE(net.parameters_changed()) << changes[i].first;
  }
  EXPECT_THROW(net.set_parallel_units(pump, 0), ConfigError);
  EXPECT_THROW(net.set_k(pipe, 0.0), ConfigError);
  EXPECT_THROW(net.convert_to_valve(pump, 0.5, 0.01), ConfigError);
}

/// Pump, valve and return pipe; the arguments vary the fields no setter
/// reaches (pump curve, pipe endpoints).
FlowNetwork pumped_valve_loop(double shutoff_head_pa = 300e3, double curve_coeff = 1e7,
                              bool reverse_pipe = false) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId c = net.add_node();
  net.add_pump(a, b, shutoff_head_pa, curve_coeff, 2);
  net.add_valve(b, c, 2e7);
  if (reverse_pipe) {
    net.add_resistance(a, c, 1e7);
  } else {
    net.add_resistance(c, a, 1e7);
  }
  return net;
}

TEST(NetworkTest, SameOperatingPointIsExact) {
  constexpr BranchId kPump = 0;
  constexpr BranchId kValve = 1;
  constexpr BranchId kPipe = 2;
  const FlowNetwork base = pumped_valve_loop();
  EXPECT_TRUE(base.same_operating_point(pumped_valve_loop()));

  // Every branch field, the node count and the branch count take part.
  const std::vector<std::pair<const char*, std::function<void(FlowNetwork&)>>> edits = {
      {"kind", [](FlowNetwork& n) { n.convert_to_valve(kPipe, 1.0, 0.02); }},
      {"endpoints", [](FlowNetwork& n) { n = pumped_valve_loop(300e3, 1e7, true); }},
      {"k", [](FlowNetwork& n) { n.set_k(kPipe, 1.5e7); }},
      {"position", [](FlowNetwork& n) { n.set_position(kValve, 0.5); }},
      {"min position", [](FlowNetwork& n) { n.convert_to_valve(kValve, 1.0, 0.01); }},
      {"shutoff head", [](FlowNetwork& n) { n = pumped_valve_loop(310e3); }},
      {"curve", [](FlowNetwork& n) { n = pumped_valve_loop(300e3, 2e7); }},
      {"speed", [](FlowNetwork& n) { n.set_speed(kPump, 0.9); }},
      {"parallel units", [](FlowNetwork& n) { n.set_parallel_units(kPump, 3); }},
      {"node count", [](FlowNetwork& n) { n.add_node(); }},
      {"branch count", [](FlowNetwork& n) { n.add_resistance(0, 2, 1e7); }},
  };
  for (const auto& [field, edit] : edits) {
    FlowNetwork other = pumped_valve_loop();
    edit(other);
    EXPECT_FALSE(base.same_operating_point(other)) << field;
    EXPECT_FALSE(other.same_operating_point(base)) << field;
  }

  // The warm start takes part too: a solved network differs from an
  // unsolved twin until the twin adopts the same solution.
  FlowNetwork solved = pumped_valve_loop();
  FlowNetwork adopter = pumped_valve_loop();
  const NetworkSolution sol = solved.solve(0.1);
  EXPECT_FALSE(solved.same_operating_point(adopter));
  adopter.adopt_solution(sol);
  EXPECT_TRUE(solved.same_operating_point(adopter));
  // Restoring a parameter restores the match.
  adopter.set_speed(kPump, 0.9);
  EXPECT_FALSE(solved.same_operating_point(adopter));
  adopter.set_speed(kPump, 1.0);
  EXPECT_TRUE(solved.same_operating_point(adopter));
}

TEST(NetworkTest, AdoptSolutionSeedsWarmStart) {
  auto build = [] {
    FlowNetwork net;
    const NodeId a = net.add_node();
    const NodeId b = net.add_node();
    net.add_pump(a, b, 300e3, 1e7);
    net.add_resistance(b, a, 2e7);
    return net;
  };
  FlowNetwork solved = build();
  const NetworkSolution sol = solved.solve(0.1);
  ASSERT_GT(sol.iterations, 0);

  FlowNetwork adopter = build();
  adopter.adopt_solution(sol);
  EXPECT_TRUE(adopter.same_operating_point(solved));  // same warm start
  // The adopted state is already converged for identical parameters.
  const NetworkSolution re = adopter.solve(0.1);
  EXPECT_EQ(re.iterations, 0);
  for (std::size_t i = 0; i < sol.node_pressure_pa.size(); ++i) {
    EXPECT_EQ(re.node_pressure_pa[i], sol.node_pressure_pa[i]);
  }

  // Shape mismatch is rejected.
  FlowNetwork other;
  other.add_node();
  other.add_node();
  other.add_resistance(0, 1, 1e6);
  EXPECT_THROW(other.adopt_solution(sol), ConfigError);
}

TEST(NetworkTest, WarmStartConvergesFasterOnReSolve) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const BranchId pump = net.add_pump(a, b, 300e3, 1e7);
  net.add_resistance(b, a, 2e7);
  const NetworkSolution cold = net.solve(0.1);
  net.set_speed(pump, 0.99);  // tiny perturbation
  const NetworkSolution warm = net.solve(0.1);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(NetworkTest, ConstructionValidation) {
  FlowNetwork net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  EXPECT_THROW(net.add_resistance(a, a, 1e6), ConfigError);
  EXPECT_THROW(net.add_resistance(a, 5, 1e6), ConfigError);
  EXPECT_THROW(net.add_resistance(a, b, -1.0), ConfigError);
  EXPECT_THROW(net.add_pump(a, b, 0.0, 1e6), ConfigError);
  EXPECT_THROW(net.add_pump(a, b, 1e5, 1e6, 0), ConfigError);
}

TEST(NetworkTest, EmptyNetworkRejected) {
  FlowNetwork net;
  net.add_node();
  net.add_node();
  EXPECT_THROW(net.solve(0.1), ConfigError);
}

TEST(NetworkTest, KFromDesignRoundTrip) {
  const double k = k_from_design(150e3, 0.03);
  EXPECT_NEAR(k * 0.03 * 0.03, 150e3, 1e-6);
  EXPECT_THROW(k_from_design(0.0, 0.03), ConfigError);
}

/// Property: randomized ladder networks (pump + parallel rungs) always
/// converge with conserved mass and non-negative pump flow.
class RandomNetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworkProperty, ConvergesAndConservesMass) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009);
  for (int trial = 0; trial < 20; ++trial) {
    FlowNetwork net;
    const NodeId suction = net.add_node();
    const NodeId header = net.add_node();
    const NodeId ret = net.add_node();
    const BranchId pump =
        net.add_pump(suction, header, rng.uniform(1e5, 5e5), rng.uniform(1e6, 5e7),
                     static_cast<int>(rng.uniform_int(1, 4)));
    net.set_speed(pump, rng.uniform(0.3, 1.0));
    const int rungs = static_cast<int>(rng.uniform_int(1, 25));
    for (int i = 0; i < rungs; ++i) {
      const BranchId v = net.add_valve(header, ret, rng.uniform(1e6, 1e9));
      net.set_position(v, rng.uniform(0.05, 1.0));
    }
    net.add_resistance(ret, suction, rng.uniform(1e5, 1e7));
    const NetworkSolution sol = net.solve(0.1);
    EXPECT_LT(sol.residual_m3s, 1e-6);
    EXPECT_GE(net.flow(sol, pump), 0.0);
    // Flow into the return node equals flow out (mass conservation).
    double rung_sum = 0.0;
    for (BranchId id = 1; id <= static_cast<BranchId>(rungs); ++id) {
      rung_sum += net.flow(sol, id);
    }
    EXPECT_NEAR(rung_sum, net.flow(sol, pump), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace exadigit
