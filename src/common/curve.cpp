#include "common/curve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace exadigit {

namespace {

void sort_and_validate(std::vector<double>& xs, std::vector<double>& ys) {
  require(!xs.empty(), "curve requires at least one knot");
  require(xs.size() == ys.size(), "curve x/y size mismatch");
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> sx(xs.size()), sy(ys.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sx[i] = xs[order[i]];
    sy[i] = ys[order[i]];
  }
  for (std::size_t i = 1; i < sx.size(); ++i) {
    require(sx[i] > sx[i - 1], "curve has duplicate x knot");
  }
  xs = std::move(sx);
  ys = std::move(sy);
}

}  // namespace

PiecewiseLinearCurve::PiecewiseLinearCurve(
    std::initializer_list<std::pair<double, double>> knots, Extrapolation extrapolation)
    : extrapolation_(extrapolation) {
  xs_.reserve(knots.size());
  ys_.reserve(knots.size());
  for (const auto& [x, y] : knots) {
    xs_.push_back(x);
    ys_.push_back(y);
  }
  sort_and_validate(xs_, ys_);
}

PiecewiseLinearCurve::PiecewiseLinearCurve(std::vector<double> xs, std::vector<double> ys,
                                           Extrapolation extrapolation)
    : xs_(std::move(xs)), ys_(std::move(ys)), extrapolation_(extrapolation) {
  sort_and_validate(xs_, ys_);
}

double PiecewiseLinearCurve::slope(double x) const {
  require(!xs_.empty(), "slope of empty curve");
  if (xs_.size() == 1) return 0.0;
  if (x < xs_.front()) {
    return extrapolation_ == Extrapolation::kClamp
               ? 0.0
               : (ys_[1] - ys_[0]) / (xs_[1] - xs_[0]);
  }
  if (x >= xs_.back()) {
    const std::size_t n = xs_.size();
    return extrapolation_ == Extrapolation::kClamp
               ? 0.0
               : (ys_[n - 1] - ys_[n - 2]) / (xs_[n - 1] - xs_[n - 2]);
  }
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  const std::size_t lo = hi - 1;
  return (ys_[hi] - ys_[lo]) / (xs_[hi] - xs_[lo]);
}

bool PiecewiseLinearCurve::is_monotone_increasing() const {
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    if (ys_[i] < ys_[i - 1]) return false;
  }
  return true;
}

bool PiecewiseLinearCurve::is_monotone_decreasing() const {
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    if (ys_[i] > ys_[i - 1]) return false;
  }
  return true;
}

double PiecewiseLinearCurve::inverse(double y) const {
  const bool inc = is_monotone_increasing();
  const bool dec = is_monotone_decreasing();
  if (!(inc ^ dec)) {
    throw SolverError("curve inverse requires strict monotonicity");
  }
  const double y_lo = inc ? ys_.front() : ys_.back();
  const double y_hi = inc ? ys_.back() : ys_.front();
  if (y <= y_lo) return inc ? xs_.front() : xs_.back();
  if (y >= y_hi) return inc ? xs_.back() : xs_.front();
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    const double a = ys_[i - 1];
    const double b = ys_[i];
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    if (y >= lo && y <= hi && a != b) {
      const double t = (y - a) / (b - a);
      return xs_[i - 1] + t * (xs_[i] - xs_[i - 1]);
    }
  }
  throw SolverError("curve inverse failed to bracket value");
}

double PiecewiseLinearCurve::x_min() const {
  require(!xs_.empty(), "x_min of empty curve");
  return xs_.front();
}

double PiecewiseLinearCurve::x_max() const {
  require(!xs_.empty(), "x_max of empty curve");
  return xs_.back();
}

PiecewiseLinearCurve PiecewiseLinearCurve::scaled_y(double factor, double lo,
                                                    double hi) const {
  std::vector<double> ys = ys_;
  for (double& y : ys) y = std::clamp(y * factor, lo, hi);
  return PiecewiseLinearCurve(xs_, std::move(ys), extrapolation_);
}

double lerp_clamped(double x, double x0, double y0, double x1, double y1) {
  if (x1 == x0) return y0;
  const double t = std::clamp((x - x0) / (x1 - x0), 0.0, 1.0);
  return y0 + t * (y1 - y0);
}

}  // namespace exadigit
