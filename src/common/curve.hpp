#pragma once

/// @file curve.hpp
/// Piecewise-linear 1-D curves.
///
/// Technical-specification data for the twin (rectifier/SIVOC efficiency vs
/// load, pump head vs flow, cold-plate thermal resistance vs flow, cooling
/// tower approach vs load) arrives as tabulated curves. PiecewiseLinearCurve
/// stores sorted (x, y) knots and evaluates with linear interpolation and
/// configurable extrapolation.

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace exadigit {

/// How a curve behaves outside its knot range.
enum class Extrapolation {
  kClamp,   ///< hold the boundary value (default: physical curves saturate)
  kLinear,  ///< extend the boundary segment's slope
};

/// A monotone-x piecewise-linear curve y = f(x).
class PiecewiseLinearCurve {
 public:
  PiecewiseLinearCurve() = default;

  /// Builds a curve from (x, y) knots. Knots are sorted by x; duplicate x
  /// values are rejected. Requires at least one knot.
  PiecewiseLinearCurve(std::initializer_list<std::pair<double, double>> knots,
                       Extrapolation extrapolation = Extrapolation::kClamp);
  PiecewiseLinearCurve(std::vector<double> xs, std::vector<double> ys,
                       Extrapolation extrapolation = Extrapolation::kClamp);

  /// Evaluates the curve at `x`. Defined inline: spec curves are tiny
  /// (a handful of knots) and this sits inside the conversion-chain and
  /// tower inner loops, so the segment search is a forward linear scan —
  /// it selects the same first-knot-greater-than-x index a binary search
  /// would, so the interpolation arithmetic (and its bits) is unchanged.
  [[nodiscard]] double operator()(double x) const {
    require_nonempty();
    if (xs_.size() == 1) return ys_.front();
    if (x <= xs_.front()) {
      if (extrapolation_ == Extrapolation::kClamp) return ys_.front();
      const double m = (ys_[1] - ys_[0]) / (xs_[1] - xs_[0]);
      return ys_.front() + m * (x - xs_.front());
    }
    if (x >= xs_.back()) {
      if (extrapolation_ == Extrapolation::kClamp) return ys_.back();
      const std::size_t n = xs_.size();
      const double m = (ys_[n - 1] - ys_[n - 2]) / (xs_[n - 1] - xs_[n - 2]);
      return ys_.back() + m * (x - xs_.back());
    }
    std::size_t hi = 1;
    while (xs_[hi] <= x) ++hi;  // bounded: x < xs_.back() here
    const std::size_t lo = hi - 1;
    const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
    return ys_[lo] + t * (ys_[hi] - ys_[lo]);
  }

  /// Derivative dy/dx at `x` (one-sided at knots; 0 in clamped regions).
  [[nodiscard]] double slope(double x) const;

  /// Inverse evaluation: smallest x with f(x) == y. Requires the curve to be
  /// strictly monotone in y; throws SolverError otherwise.
  [[nodiscard]] double inverse(double y) const;

  /// True when the curve's y values are non-decreasing / non-increasing in x.
  [[nodiscard]] bool is_monotone_increasing() const;
  [[nodiscard]] bool is_monotone_decreasing() const;

  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double x_min() const;
  [[nodiscard]] double x_max() const;
  [[nodiscard]] const std::vector<double>& xs() const { return xs_; }
  [[nodiscard]] const std::vector<double>& ys() const { return ys_; }
  [[nodiscard]] Extrapolation extrapolation() const { return extrapolation_; }

  /// Returns a new curve, with this one's knots and extrapolation, whose
  /// every y is multiplied by `factor` and clamped to [lo, hi].
  [[nodiscard]] PiecewiseLinearCurve scaled_y(double factor, double lo, double hi) const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  Extrapolation extrapolation_ = Extrapolation::kClamp;

  void require_nonempty() const { require(!xs_.empty(), "evaluating empty curve"); }
};

/// Linear interpolation between (x0,y0) and (x1,y1); clamps outside.
[[nodiscard]] double lerp_clamped(double x, double x0, double y0, double x1, double y1);

}  // namespace exadigit
