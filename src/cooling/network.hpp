#pragma once

/// @file network.hpp
/// Steady hydraulics of a series-parallel cooling loop, in closed form.
///
/// Each cooling loop in the plant (paper Fig. 5) is a pump bank in series
/// with quadratic resistances, one group of which may be in parallel:
///   - a CDU loop: pump -> 3 rack branches in parallel -> HEX leg;
///   - the primary HTW loop: HTWP bank -> EHX bank -> 25 CDU valves in
///     parallel;
///   - the cooling-tower loop: CTWP bank -> EHX cold side -> tower cells.
///
/// Fluid transients are far faster than thermal ones, so the plant takes
/// the steady limit of the paper's Modelica.Fluid loops at every step, and
/// on this shape the steady limit has an exact closed form. A bank of n
/// units at relative speed s lifts s^2 H0 - a (Q/n)^2, and a resistance
/// drops K Q^2, so the loop flow is
///
///     Q = n s sqrt(H0 / (a + n^2 K_eq)),  K_eq = sum K_series + (sum g_i)^-2,
///
/// where g_i = 1/sqrt(K_i) is a parallel branch's conductance; a valve at
/// position p has g = max(p, p_min)/sqrt(k_open). The branches split the
/// flow as Q_i = (Q / sum g) g_i, and node pressures follow branch by branch
/// from the pump suction, the 0 Pa reference. Zero speed gives zero flow,
/// and no flow ever runs backward through the pumps.
///
/// Nothing iterates: every evaluation is exact to rounding, and every node
/// balances its mass to rounding (mass_residual_rel reports how closely).
/// The type expresses only this shape; a second parallel group, or a loop
/// with nothing for the pump to push against, is a ConfigError.

#include <cstddef>
#include <vector>

namespace exadigit {

/// Handle of a series leg, or of a branch of the parallel group.
using BranchId = std::size_t;

/// One pump-driven series-parallel loop: build once, set parameters
/// (speeds, staged units, resistances, valve positions) between steps, and
/// evaluate.
class SeriesParallelLoop {
 public:
  /// A bank of `units` identical pumps with shut-off head `shutoff_head_pa`
  /// and curve coefficient `curve_coeff` (head s^2 H0 - a (Q/n)^2) lifting
  /// from the suction node into the first leg, at full speed.
  SeriesParallelLoop(double shutoff_head_pa, double curve_coeff, int units = 1);

  /// Appends a series resistance dP = k Q^2 after the legs added so far.
  /// The last leg added returns to the suction node.
  BranchId add_series(double k);

  /// Adds a branch with fully open resistance `k_open` to the loop's
  /// parallel group, which sits where the first such branch was added.
  /// Its position starts fully open and never closes below `min_position`.
  BranchId add_parallel(double k_open, double min_position = 0.02);

  /// Pump relative speed s (>= 0).
  void set_speed(double speed);
  /// Number of identical pump units running (>= 1).
  void set_units(int units);
  /// Series resistance coefficient k (> 0).
  void set_k(BranchId series, double k);
  /// Parallel branch opening; the branch's K is k_open / max(position,
  /// min_position)^2.
  void set_position(BranchId parallel, double position);

  /// Computes flows and pressures at the current parameters.
  void evaluate();

  // Results of the last evaluate().
  /// Flow through the pump bank, which is the flow round the loop.
  [[nodiscard]] double flow_m3s() const { return flow_m3s_; }
  /// Flow through one branch of the parallel group.
  [[nodiscard]] double branch_flow_m3s(BranchId parallel) const {
    return group_.at(parallel).flow_m3s;
  }
  /// Pressure rise across the pump bank: its discharge pressure.
  [[nodiscard]] double pump_rise_pa() const { return rise_pa_; }
  /// Pressure at the inlet of a series leg.
  [[nodiscard]] double inlet_pressure_pa(BranchId series) const {
    return series_.at(series).inlet_pa;
  }
  /// |Q - sum Q_i| / Q at the parallel group's two nodes; every other node
  /// passes the loop flow through unchanged. 0 without flow or a group.
  [[nodiscard]] double mass_residual_rel() const { return mass_residual_rel_; }

  [[nodiscard]] std::size_t parallel_count() const { return group_.size(); }

 private:
  struct SeriesLeg {
    double k = 0.0;
    double inlet_pa = 0.0;
  };
  struct ParallelBranch {
    double inv_sqrt_k_open = 0.0;  ///< cached when the branch is added
    double min_position = 0.0;
    double conductance = 0.0;      ///< max(position, min_position) / sqrt(k_open)
    double flow_m3s = 0.0;
  };

  double shutoff_head_pa_;
  double curve_coeff_;
  int units_;
  double speed_ = 1.0;
  std::vector<SeriesLeg> series_;
  std::vector<ParallelBranch> group_;
  /// Number of series legs ahead of the parallel group.
  std::size_t group_at_ = 0;

  double flow_m3s_ = 0.0;
  double rise_pa_ = 0.0;
  double mass_residual_rel_ = 0.0;
};

/// Resistance coefficient K from a design point: dP_design = K Q_design^2.
[[nodiscard]] double k_from_design(double dp_pa, double q_m3s);

}  // namespace exadigit
