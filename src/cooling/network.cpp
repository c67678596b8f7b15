#include "cooling/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

SeriesParallelLoop::SeriesParallelLoop(double shutoff_head_pa, double curve_coeff, int units)
    : shutoff_head_pa_(shutoff_head_pa), curve_coeff_(curve_coeff), units_(units) {
  require(shutoff_head_pa > 0.0, "pump shutoff head must be positive");
  require(curve_coeff > 0.0, "pump curve coefficient must be positive");
  require(units >= 1, "pump bank requires at least one unit");
}

BranchId SeriesParallelLoop::add_series(double k) {
  require(k > 0.0, "resistance coefficient must be positive");
  series_.push_back(SeriesLeg{k, 0.0});
  return series_.size() - 1;
}

BranchId SeriesParallelLoop::add_parallel(double k_open, double min_position) {
  require(k_open > 0.0, "resistance coefficient must be positive");
  require(min_position > 0.0 && min_position <= 1.0, "valve min_position must be in (0, 1]");
  if (group_.empty()) {
    group_at_ = series_.size();
  } else {
    require(group_at_ == series_.size(), "a loop holds at most one parallel group");
  }
  const double inv_sqrt_k = 1.0 / std::sqrt(k_open);
  group_.push_back(ParallelBranch{inv_sqrt_k, min_position, inv_sqrt_k, 0.0});
  return group_.size() - 1;
}

void SeriesParallelLoop::set_speed(double speed) {
  require(speed >= 0.0, "pump speed must be non-negative");
  speed_ = speed;
}

void SeriesParallelLoop::set_units(int units) {
  require(units >= 1, "pump bank requires at least one unit");
  units_ = units;
}

void SeriesParallelLoop::set_k(BranchId series, double k) {
  require(k > 0.0, "resistance coefficient must be positive");
  series_.at(series).k = k;
}

void SeriesParallelLoop::set_position(BranchId parallel, double position) {
  ParallelBranch& b = group_.at(parallel);
  b.conductance = std::max(position, b.min_position) * b.inv_sqrt_k_open;
}

// exadigit-hot-begin(loop-evaluate)
void SeriesParallelLoop::evaluate() {
  require(!series_.empty() || !group_.empty(), "a loop needs a resistance for its pump to drive");
  double k_eq = 0.0;
  for (const SeriesLeg& leg : series_) k_eq += leg.k;
  double g_sum = 0.0;
  for (const ParallelBranch& b : group_) g_sum += b.conductance;
  if (!group_.empty()) k_eq += 1.0 / (g_sum * g_sum);

  const double n = static_cast<double>(units_);
  flow_m3s_ = n * speed_ * std::sqrt(shutoff_head_pa_ / (curve_coeff_ + n * n * k_eq));
  const double q2 = flow_m3s_ * flow_m3s_;
  rise_pa_ = k_eq * q2;

  // Split the flow over the group (its branches share one pressure drop),
  // then walk the pressures downstream from the pump discharge.
  const double per_conductance = group_.empty() ? 0.0 : flow_m3s_ / g_sum;
  double split = 0.0;
  for (ParallelBranch& b : group_) {
    b.flow_m3s = per_conductance * b.conductance;
    split += b.flow_m3s;
  }
  double p = rise_pa_;
  for (std::size_t j = 0; j <= series_.size(); ++j) {
    if (j == group_at_) p -= per_conductance * per_conductance;
    if (j == series_.size()) break;
    series_[j].inlet_pa = p;
    p -= series_[j].k * q2;
  }
  mass_residual_rel_ =
      group_.empty() || flow_m3s_ <= 0.0 ? 0.0 : std::abs(flow_m3s_ - split) / flow_m3s_;
}
// exadigit-hot-end

double k_from_design(double dp_pa, double q_m3s) {
  require(dp_pa > 0.0 && q_m3s > 0.0, "design point must be positive");
  return dp_pa / (q_m3s * q_m3s);
}

}  // namespace exadigit
