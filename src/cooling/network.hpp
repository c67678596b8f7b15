#pragma once

/// @file network.hpp
/// Steady incompressible flow-network solver.
///
/// Each cooling loop in the plant (25 CDU secondary loops, the primary HTW
/// loop, the cooling-tower loop — paper Fig. 5) is a pipe network of pumps,
/// quadratic resistances, and control valves. Because the fluid transients
/// are far faster than the thermal ones, hydraulics are solved as a steady
/// network at every cooling step: Newton iteration on nodal pressures with
/// mass conservation residuals, which is the staggered-grid momentum/mass
/// formulation of Modelica.Fluid collapsed to its steady limit.
///
/// Branch characteristics are regularized near zero pressure drop so the
/// Jacobian stays finite, and pumps carry integral check valves (no
/// backflow), matching the physical plant.
///
/// The solver keeps a persistent per-network workspace (pressures,
/// residual, Jacobian, line-search buffers, branch flows): after the first
/// solve on a network, re-solves perform no heap allocation when driven
/// through `solve_into`.
///
/// Branch parameters change only through the network's setters (pump speed
/// and units, resistance k, valve position, resistance-to-valve
/// conversion), so the network knows whether its operating point moved
/// since it last held a converged state: `parameters_changed()` is set by
/// any setter that writes a new value and cleared by `solve`, `solve_into`
/// and `adopt_solution`. A setter that writes the value already held is not
/// a change. `same_operating_point` compares two networks exactly: the
/// topology, every branch parameter and the warm start. Together they let
/// callers skip a re-solve when nothing changed, or share one solution
/// among identical-topology networks at the same operating point — see
/// CoolingPlantModel::solve_hydraulics.

#include <cstddef>
#include <string>
#include <vector>

namespace exadigit {

/// Handle for a network node.
using NodeId = std::size_t;
/// Handle for a network branch.
using BranchId = std::size_t;

/// Branch kind; determines how flow responds to the pressure difference.
enum class BranchKind {
  kResistance,  ///< dP = K Q |Q|
  kValve,       ///< resistance with position-dependent K
  kPump,        ///< head rise dP = s^2 H0 - a (Q/n)^2, Q >= 0 (check valve)
};

/// One network branch and its operating parameters.
struct Branch {
  BranchKind kind = BranchKind::kResistance;
  NodeId from = 0;
  NodeId to = 0;
  std::string name;
  // Resistance / valve:
  double k = 0.0;           ///< Pa/(m^3/s)^2 at fully open
  double position = 1.0;    ///< valve opening in (0, 1]
  double min_position = 0.02;
  // Pump:
  double shutoff_head_pa = 0.0;  ///< H0 at full speed
  double curve_coeff = 0.0;      ///< a in dP = s^2 H0 - a (Q/n)^2
  double speed = 1.0;            ///< relative speed s in [0, 1]
  int parallel_units = 1;        ///< n identical units sharing the branch
};

/// Converged network state.
struct NetworkSolution {
  std::vector<double> node_pressure_pa;  ///< relative to the reference node
  std::vector<double> branch_flow_m3s;   ///< positive from -> to
  int iterations = 0;
  double residual_m3s = 0.0;  ///< worst nodal mass imbalance
};

/// A flow network: build once, set branch parameters (speeds, valve
/// positions, blockage factors) between solves, and re-solve warm-started.
class FlowNetwork {
 public:
  /// Diagnostic label included in solver-failure messages.
  void set_label(std::string label) { label_ = std::move(label); }
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Adds a node; the first node added is the pressure reference (0 Pa).
  NodeId add_node(std::string name = {});

  /// Adds a quadratic resistance with coefficient `k` (Pa s^2/m^6).
  BranchId add_resistance(NodeId from, NodeId to, double k, std::string name = {});

  /// Adds a valve: fully open resistance `k_open`; effective K is
  /// k_open / position^2 (clamped at min_position).
  BranchId add_valve(NodeId from, NodeId to, double k_open, std::string name = {});

  /// Adds a pump bank of `parallel_units` identical pumps from suction
  /// `from` to discharge `to`.
  BranchId add_pump(NodeId from, NodeId to, double shutoff_head_pa, double curve_coeff,
                    int parallel_units = 1, std::string name = {});

  [[nodiscard]] const Branch& branch(BranchId id) const { return branches_.at(id); }

  // Parameter setters. Each marks the network changed only when it writes
  // a value different from the one held.
  /// Pump relative speed s.
  void set_speed(BranchId id, double speed);
  /// Number of identical pump units sharing a pump branch (>= 1).
  void set_parallel_units(BranchId id, int units);
  /// Resistance (fully open, for a valve) coefficient k (> 0).
  void set_k(BranchId id, double k);
  /// Valve opening; effective K is k / max(position, min_position)^2.
  void set_position(BranchId id, double position);
  /// Turns a branch into a valve at `position`, clamped at `min_position`
  /// (a resistance keeps its k as the fully open coefficient).
  void convert_to_valve(BranchId id, double position, double min_position);

  /// True when a parameter changed since the last solve, solve_into or
  /// adopt_solution, and for a network that has never held a solution.
  [[nodiscard]] bool parameters_changed() const { return changed_; }

  /// Exact operating-point equality: the node count, every branch's kind,
  /// endpoints and parameters, and the warm-start pressures. Two networks
  /// that compare equal produce bit-identical solutions (exact comparison,
  /// never tolerance-based, to keep runs deterministic).
  [[nodiscard]] bool same_operating_point(const FlowNetwork& other) const;

  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] std::size_t branch_count() const { return branches_.size(); }

  /// Solves mass conservation; throws SolverError when Newton fails.
  /// `flow_scale_m3s` sets the convergence tolerance (1e-6 of it).
  /// Allocates a fresh solution and solver workspace on every call; the
  /// plant and other hot paths use solve_into instead. Results are
  /// bit-identical between the two (NetworkTest holds solve_into to this
  /// reference).
  [[nodiscard]] NetworkSolution solve(double flow_scale_m3s = 0.1) const;

  /// Allocation-free variant of solve(): writes the converged state into
  /// `out`, reusing its vectors and the network's persistent solver
  /// workspace. Identical arithmetic to solve(); after the first call with
  /// a given `out` the steady-state inner loop performs no heap allocation.
  void solve_into(NetworkSolution& out, double flow_scale_m3s = 0.1) const;

  /// Installs `sol` as this network's converged state without solving, as
  /// if solve() had just returned it (the next solve warm-starts from it).
  /// The caller guarantees `sol` solves this network's current parameters —
  /// used when an identical-topology network at the same operating point
  /// was already solved this step.
  void adopt_solution(const NetworkSolution& sol);

  /// Flow through a branch under a solution.
  [[nodiscard]] double flow(const NetworkSolution& sol, BranchId id) const {
    return sol.branch_flow_m3s.at(id);
  }

  /// Pressure rise across a branch (to minus from) under a solution.
  [[nodiscard]] double pressure_rise(const NetworkSolution& sol, BranchId id) const;

 private:
  /// Persistent solver buffers, sized on first use and reused thereafter so
  /// steady-state re-solves are allocation-free.
  struct SolveWorkspace {
    std::vector<double> pressure;  ///< current Newton iterate (all nodes)
    std::vector<double> residual;  ///< nodal mass imbalance (non-reference)
    std::vector<double> jac;       ///< dense Jacobian, destroyed in place by GE
    std::vector<double> delta;     ///< Newton step
    std::vector<double> trial;     ///< line-search candidate pressures
    std::vector<double> flows;     ///< per-branch flows at the last evaluate
  };

  std::string label_;
  std::vector<std::string> node_names_;
  std::vector<Branch> branches_;
  mutable std::vector<double> warm_pressures_;
  /// Set when a node, a branch or a parameter value is added or changed;
  /// cleared once a converged state for the current parameters is held.
  mutable bool changed_ = true;
  mutable SolveWorkspace ws_;

  void solve_with(SolveWorkspace& ws, double flow_scale_m3s, NetworkSolution& out) const;
  void solve_impl(SolveWorkspace& ws, double flow_scale_m3s, bool use_warm_start,
                  NetworkSolution& out) const;

  /// Flow and dQ/d(dp) for a branch at pressure drop `dp = P_from - P_to`.
  void branch_flow(const Branch& b, double dp, double& q, double& dq_ddp) const;
};

/// Resistance coefficient K from a design point: dP_design = K Q_design^2.
[[nodiscard]] double k_from_design(double dp_pa, double q_m3s);

}  // namespace exadigit
