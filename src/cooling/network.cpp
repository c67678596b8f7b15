#include "cooling/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace exadigit {

namespace {
/// Pressure-drop regularization half-width (Pa): below this the quadratic
/// characteristic is linearized so dQ/ddp stays bounded.
constexpr double kRegularizePa = 2.0;

/// Writes `value` into `slot` and reports whether it differed (exact
/// comparison, as the dedup contract requires).
template <typename T>
bool assign_changed(T& slot, T value) {
  if (slot == value) return false;
  slot = value;
  return true;
}
}  // namespace

NodeId FlowNetwork::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  changed_ = true;
  return node_names_.size() - 1;
}

BranchId FlowNetwork::add_resistance(NodeId from, NodeId to, double k, std::string name) {
  require(from < node_count() && to < node_count(), "branch endpoint out of range");
  require(from != to, "branch endpoints must differ");
  require(k > 0.0, "resistance coefficient must be positive");
  Branch b;
  b.kind = BranchKind::kResistance;
  b.from = from;
  b.to = to;
  b.k = k;
  b.name = std::move(name);
  branches_.push_back(b);
  changed_ = true;
  return branches_.size() - 1;
}

BranchId FlowNetwork::add_valve(NodeId from, NodeId to, double k_open, std::string name) {
  const BranchId id = add_resistance(from, to, k_open, std::move(name));
  branches_[id].kind = BranchKind::kValve;
  return id;
}

BranchId FlowNetwork::add_pump(NodeId from, NodeId to, double shutoff_head_pa,
                               double curve_coeff, int parallel_units, std::string name) {
  require(from < node_count() && to < node_count(), "branch endpoint out of range");
  require(from != to, "branch endpoints must differ");
  require(shutoff_head_pa > 0.0, "pump shutoff head must be positive");
  require(curve_coeff > 0.0, "pump curve coefficient must be positive");
  require(parallel_units >= 1, "pump bank requires at least one unit");
  Branch b;
  b.kind = BranchKind::kPump;
  b.from = from;
  b.to = to;
  b.shutoff_head_pa = shutoff_head_pa;
  b.curve_coeff = curve_coeff;
  b.parallel_units = parallel_units;
  b.name = std::move(name);
  branches_.push_back(b);
  changed_ = true;
  return branches_.size() - 1;
}

void FlowNetwork::set_speed(BranchId id, double speed) {
  changed_ |= assign_changed(branches_.at(id).speed, speed);
}

void FlowNetwork::set_parallel_units(BranchId id, int units) {
  require(units >= 1, "pump bank requires at least one unit");
  changed_ |= assign_changed(branches_.at(id).parallel_units, units);
}

void FlowNetwork::set_k(BranchId id, double k) {
  require(k > 0.0, "resistance coefficient must be positive");
  changed_ |= assign_changed(branches_.at(id).k, k);
}

void FlowNetwork::set_position(BranchId id, double position) {
  changed_ |= assign_changed(branches_.at(id).position, position);
}

void FlowNetwork::convert_to_valve(BranchId id, double position, double min_position) {
  Branch& b = branches_.at(id);
  require(b.kind != BranchKind::kPump, "a pump branch cannot become a valve");
  changed_ |= assign_changed(b.kind, BranchKind::kValve);
  changed_ |= assign_changed(b.position, position);
  changed_ |= assign_changed(b.min_position, min_position);
}

bool FlowNetwork::same_operating_point(const FlowNetwork& other) const {
  if (node_count() != other.node_count() || branches_.size() != other.branches_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    const Branch& a = branches_[i];
    const Branch& b = other.branches_[i];
    if (a.kind != b.kind || a.from != b.from || a.to != b.to || a.k != b.k ||
        a.position != b.position || a.min_position != b.min_position ||
        a.shutoff_head_pa != b.shutoff_head_pa || a.curve_coeff != b.curve_coeff ||
        a.speed != b.speed || a.parallel_units != b.parallel_units) {
      return false;
    }
  }
  return warm_pressures_ == other.warm_pressures_;
}

void FlowNetwork::branch_flow(const Branch& b, double dp, double& q, double& dq_ddp) const {
  switch (b.kind) {
    case BranchKind::kResistance:
    case BranchKind::kValve: {
      double k = b.k;
      if (b.kind == BranchKind::kValve) {
        const double pos = std::max(b.position, b.min_position);
        k = b.k / (pos * pos);
      }
      const double mag = std::abs(dp);
      if (mag <= kRegularizePa) {
        const double slope = 1.0 / std::sqrt(k * kRegularizePa);
        q = dp * slope;
        dq_ddp = slope;
      } else {
        const double flow = std::sqrt(mag / k);
        q = dp > 0.0 ? flow : -flow;
        dq_ddp = 1.0 / (2.0 * std::sqrt(k * mag));
      }
      return;
    }
    case BranchKind::kPump: {
      // Head rise = P_to - P_from = -dp must equal s^2 H0 - a (Q/n)^2.
      const double s2h0 = b.speed * b.speed * b.shutoff_head_pa;
      const double avail = s2h0 + dp;  // a (Q/n)^2
      const double n = static_cast<double>(b.parallel_units);
      if (avail <= 0.0) {
        // Check valve holds the pump bank closed against reverse head. The
        // reported slope matches the linearized branch at avail == 0 and
        // decays algebraically into deep closure, staying strictly positive
        // so the Jacobian cannot go singular on a closed pump. (The old
        // constant 1e-3/sqrt(a*kReg) slope was a ~1000*n discontinuity in
        // dq/ddp at the boundary that could stall Newton on pumps held
        // near closed/reverse head.)
        const double slope0 = n / std::sqrt(b.curve_coeff * kRegularizePa);
        q = 0.0;
        dq_ddp = slope0 / (1.0 - avail / kRegularizePa);
        return;
      }
      if (avail <= kRegularizePa) {
        // Linearize through (0, 0) and (delta, n*sqrt(delta/a)) so the
        // characteristic stays continuous at the regularization boundary.
        const double slope = n / std::sqrt(b.curve_coeff * kRegularizePa);
        q = avail * slope;
        dq_ddp = slope;
        return;
      }
      const double per_unit = std::sqrt(avail / b.curve_coeff);
      q = n * per_unit;
      dq_ddp = n / (2.0 * std::sqrt(b.curve_coeff * avail));
      return;
    }
  }
  q = 0.0;
  dq_ddp = 0.0;
}

NetworkSolution FlowNetwork::solve(double flow_scale_m3s) const {
  // Fresh workspace per call, so a one-off solve shares no scratch state
  // with solve_into.
  SolveWorkspace ws;
  NetworkSolution sol;
  solve_with(ws, flow_scale_m3s, sol);
  return sol;
}

// exadigit-hot-begin(network-solve)
void FlowNetwork::solve_into(NetworkSolution& out, double flow_scale_m3s) const {
  solve_with(ws_, flow_scale_m3s, out);
}

void FlowNetwork::solve_with(SolveWorkspace& ws, double flow_scale_m3s,
                             NetworkSolution& out) const {
  // A warm start from the previous operating point almost always converges
  // in a few iterations; after a large parameter change (staging events)
  // it can start Newton in a bad basin, so fall back to a cold start.
  if (warm_pressures_.size() == node_count()) {
    try {
      solve_impl(ws, flow_scale_m3s, /*use_warm_start=*/true, out);
      return;
    } catch (const SolverError&) {
      EXADIGIT_DEBUG << "network '" << label_ << "': warm start failed, retrying cold";
    }
  }
  solve_impl(ws, flow_scale_m3s, /*use_warm_start=*/false, out);
}

void FlowNetwork::adopt_solution(const NetworkSolution& sol) {
  require(sol.node_pressure_pa.size() == node_count() &&
          sol.branch_flow_m3s.size() == branch_count(),
          "adopted solution does not match the network shape");
  warm_pressures_.assign(sol.node_pressure_pa.begin(), sol.node_pressure_pa.end());
  changed_ = false;
}

void FlowNetwork::solve_impl(SolveWorkspace& ws, double flow_scale_m3s,
                             bool use_warm_start, NetworkSolution& out) const {
  const std::size_t n_nodes = node_count();
  require(n_nodes >= 2, "network requires at least two nodes");
  require(!branches_.empty(), "network requires at least one branch");
  const std::size_t n_unknown = n_nodes - 1;  // node 0 is the reference

  std::vector<double>& pressure = ws.pressure;
  if (use_warm_start && warm_pressures_.size() == n_nodes) {
    pressure.assign(warm_pressures_.begin(), warm_pressures_.end());
  } else {
    pressure.assign(n_nodes, 0.0);
  }
  pressure[0] = 0.0;

  const double tol = std::max(flow_scale_m3s, 1e-3) * 1e-6;
  std::vector<double>& residual = ws.residual;
  std::vector<double>& jac = ws.jac;
  std::vector<double>& flows = ws.flows;
  residual.resize(n_unknown);
  jac.resize(n_unknown * n_unknown);
  flows.resize(branches_.size());

  auto evaluate = [&](const std::vector<double>& p, std::vector<double>& r,
                      std::vector<double>* jacobian) {
    std::fill(r.begin(), r.end(), 0.0);
    if (jacobian != nullptr) std::fill(jacobian->begin(), jacobian->end(), 0.0);
    for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
      const Branch& b = branches_[bi];
      const double dp = p[b.from] - p[b.to];
      double q = 0.0;
      double dq = 0.0;
      branch_flow(b, dp, q, dq);
      flows[bi] = q;
      // Mass balance: inflow - outflow at every non-reference node.
      if (b.to != 0) r[b.to - 1] += q;
      if (b.from != 0) r[b.from - 1] -= q;
      if (jacobian != nullptr) {
        auto at = [&](std::size_t row, std::size_t col) -> double& {
          return (*jacobian)[row * n_unknown + col];
        };
        // dq/dP_from = dq, dq/dP_to = -dq.
        if (b.to != 0 && b.from != 0) {
          at(b.to - 1, b.from - 1) += dq;
          at(b.to - 1, b.to - 1) -= dq;
          at(b.from - 1, b.from - 1) -= dq;
          at(b.from - 1, b.to - 1) += dq;
        } else if (b.to != 0) {
          at(b.to - 1, b.to - 1) -= dq;
        } else if (b.from != 0) {
          at(b.from - 1, b.from - 1) -= dq;
        }
      }
    }
  };

  auto max_abs = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, std::abs(x));
    return m;
  };

  constexpr int kMaxIter = 200;
  int iter = 0;
  evaluate(pressure, residual, nullptr);
  double res_norm = max_abs(residual);
  std::vector<double>& delta = ws.delta;
  std::vector<double>& trial = ws.trial;
  delta.resize(n_unknown);
  trial.resize(n_nodes);

  while (res_norm > tol && iter < kMaxIter) {
    ++iter;
    evaluate(pressure, residual, &jac);

    // Dense Gaussian elimination with partial pivoting: jac * delta =
    // -residual. The factorization destroys `jac` in place; it is fully
    // rebuilt by the evaluate() at the top of the next iteration.
    std::vector<double>& a = jac;
    for (std::size_t i = 0; i < n_unknown; ++i) delta[i] = -residual[i];
    for (std::size_t col = 0; col < n_unknown; ++col) {
      std::size_t pivot = col;
      for (std::size_t row = col + 1; row < n_unknown; ++row) {
        if (std::abs(a[row * n_unknown + col]) > std::abs(a[pivot * n_unknown + col])) {
          pivot = row;
        }
      }
      if (std::abs(a[pivot * n_unknown + col]) < 1e-30) {
        throw SolverError("flow network Jacobian is singular (disconnected node?)");
      }
      if (pivot != col) {
        for (std::size_t k = col; k < n_unknown; ++k) {
          std::swap(a[col * n_unknown + k], a[pivot * n_unknown + k]);
        }
        std::swap(delta[col], delta[pivot]);
      }
      const double inv = 1.0 / a[col * n_unknown + col];
      for (std::size_t row = col + 1; row < n_unknown; ++row) {
        const double f = a[row * n_unknown + col] * inv;
        if (f == 0.0) continue;
        for (std::size_t k = col; k < n_unknown; ++k) {
          a[row * n_unknown + k] -= f * a[col * n_unknown + k];
        }
        delta[row] -= f * delta[col];
      }
    }
    for (std::size_t i = n_unknown; i-- > 0;) {
      double acc = delta[i];
      for (std::size_t k = i + 1; k < n_unknown; ++k) {
        acc -= a[i * n_unknown + k] * delta[k];
      }
      delta[i] = acc / a[i * n_unknown + i];
    }

    // Damped line search: halve the step until the residual improves.
    double step = 1.0;
    bool improved = false;
    for (int attempt = 0; attempt < 12; ++attempt) {
      trial = pressure;
      for (std::size_t i = 0; i < n_unknown; ++i) trial[i + 1] += step * delta[i];
      evaluate(trial, residual, nullptr);
      const double trial_norm = max_abs(residual);
      if (trial_norm < res_norm || trial_norm <= tol) {
        pressure = trial;
        res_norm = trial_norm;
        improved = true;
        break;
      }
      step *= 0.5;
    }
    if (!improved) {
      // Accept the smallest step anyway; Newton on regularized quadratics
      // recovers on subsequent iterations.
      pressure = trial;
      evaluate(pressure, residual, nullptr);
      res_norm = max_abs(residual);
    }
  }

  if (res_norm > tol) {
    // Cold error path: allocation here is fine, the solve is already lost.
    throw SolverError("flow network '" + label_ + "' failed to converge: residual " +
                      std::to_string(res_norm) +  // exadigit-lint: allow(hot-path-alloc)
                      " m^3/s after " +
                      std::to_string(iter) + " iterations");  // exadigit-lint: allow(hot-path-alloc)
  }

  // `flows` is already consistent with `pressure`: every exit path above
  // re-evaluated at the accepted iterate, so the old post-convergence
  // evaluate() was pure recomputation and is dropped.
  out.node_pressure_pa.assign(pressure.begin(), pressure.end());
  out.branch_flow_m3s.assign(flows.begin(), flows.end());
  out.iterations = iter;
  out.residual_m3s = res_norm;
  warm_pressures_.assign(pressure.begin(), pressure.end());
  changed_ = false;
}
// exadigit-hot-end

double FlowNetwork::pressure_rise(const NetworkSolution& sol, BranchId id) const {
  const Branch& b = branches_.at(id);
  return sol.node_pressure_pa.at(b.to) - sol.node_pressure_pa.at(b.from);
}

double k_from_design(double dp_pa, double q_m3s) {
  require(dp_pa > 0.0 && q_m3s > 0.0, "design point must be positive");
  return dp_pa / (q_m3s * q_m3s);
}

}  // namespace exadigit
