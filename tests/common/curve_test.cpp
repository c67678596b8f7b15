#include "common/curve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace exadigit {
namespace {

TEST(CurveTest, EvaluatesKnotsExactly) {
  PiecewiseLinearCurve c{{0.0, 1.0}, {1.0, 3.0}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(c(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c(1.0), 3.0);
  EXPECT_DOUBLE_EQ(c(2.0), 2.0);
}

TEST(CurveTest, InterpolatesLinearlyBetweenKnots) {
  PiecewiseLinearCurve c{{0.0, 0.0}, {10.0, 100.0}};
  EXPECT_DOUBLE_EQ(c(2.5), 25.0);
  EXPECT_DOUBLE_EQ(c(7.5), 75.0);
}

TEST(CurveTest, SortsUnorderedKnots) {
  PiecewiseLinearCurve c{{2.0, 20.0}, {0.0, 0.0}, {1.0, 10.0}};
  EXPECT_DOUBLE_EQ(c(0.5), 5.0);
  EXPECT_DOUBLE_EQ(c.x_min(), 0.0);
  EXPECT_DOUBLE_EQ(c.x_max(), 2.0);
}

TEST(CurveTest, ClampExtrapolationHoldsBoundaryValues) {
  PiecewiseLinearCurve c{{0.0, 5.0}, {1.0, 7.0}};
  EXPECT_DOUBLE_EQ(c(-10.0), 5.0);
  EXPECT_DOUBLE_EQ(c(10.0), 7.0);
  EXPECT_DOUBLE_EQ(c.slope(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(c.slope(10.0), 0.0);
}

TEST(CurveTest, LinearExtrapolationExtendsEndSegments) {
  PiecewiseLinearCurve c({{0.0, 0.0}, {1.0, 2.0}}, Extrapolation::kLinear);
  EXPECT_DOUBLE_EQ(c(2.0), 4.0);
  EXPECT_DOUBLE_EQ(c(-1.0), -2.0);
}

TEST(CurveTest, SingleKnotIsConstant) {
  PiecewiseLinearCurve c{{3.0, 42.0}};
  EXPECT_DOUBLE_EQ(c(-100.0), 42.0);
  EXPECT_DOUBLE_EQ(c(100.0), 42.0);
  EXPECT_DOUBLE_EQ(c.slope(0.0), 0.0);
}

TEST(CurveTest, RejectsDuplicateKnots) {
  EXPECT_THROW((PiecewiseLinearCurve{{1.0, 2.0}, {1.0, 3.0}}), ConfigError);
}

TEST(CurveTest, RejectsEmpty) {
  EXPECT_THROW(PiecewiseLinearCurve({}, {}), ConfigError);
}

TEST(CurveTest, MonotonicityDetection) {
  PiecewiseLinearCurve inc{{0.0, 0.0}, {1.0, 1.0}, {2.0, 1.0}};
  PiecewiseLinearCurve dec{{0.0, 2.0}, {1.0, 1.0}, {2.0, 0.5}};
  PiecewiseLinearCurve bump{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}};
  EXPECT_TRUE(inc.is_monotone_increasing());
  EXPECT_FALSE(inc.is_monotone_decreasing());
  EXPECT_TRUE(dec.is_monotone_decreasing());
  EXPECT_FALSE(bump.is_monotone_increasing());
  EXPECT_FALSE(bump.is_monotone_decreasing());
}

TEST(CurveTest, InverseRecoversInput) {
  PiecewiseLinearCurve c{{0.0, 0.0}, {2.0, 8.0}, {4.0, 10.0}};
  for (double x : {0.1, 0.9, 1.7, 2.4, 3.9}) {
    EXPECT_NEAR(c.inverse(c(x)), x, 1e-12);
  }
}

TEST(CurveTest, InverseOfDecreasingCurve) {
  PiecewiseLinearCurve c{{0.0, 10.0}, {5.0, 0.0}};
  EXPECT_NEAR(c.inverse(5.0), 2.5, 1e-12);
}

TEST(CurveTest, InverseRejectsNonMonotone) {
  PiecewiseLinearCurve bump{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}};
  EXPECT_THROW(bump.inverse(0.5), SolverError);
}

TEST(CurveTest, ScaledYMultipliesValues) {
  PiecewiseLinearCurve c{{0.0, 1.0}, {1.0, 2.0}};
  PiecewiseLinearCurve s = c.scaled_y(3.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(s(0.0), 3.0);
  EXPECT_DOUBLE_EQ(s(1.0), 6.0);
  EXPECT_DOUBLE_EQ(c.scaled_y(3.0, 0.0, 5.0)(1.0), 5.0);
}

TEST(CurveTest, SlopeInsideSegments) {
  PiecewiseLinearCurve c{{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}};
  EXPECT_DOUBLE_EQ(c.slope(0.5), 2.0);
  EXPECT_DOUBLE_EQ(c.slope(2.0), 0.0);
}

TEST(CurveTest, LerpClampedBounds) {
  EXPECT_DOUBLE_EQ(lerp_clamped(-1.0, 0.0, 10.0, 1.0, 20.0), 10.0);
  EXPECT_DOUBLE_EQ(lerp_clamped(2.0, 0.0, 10.0, 1.0, 20.0), 20.0);
  EXPECT_DOUBLE_EQ(lerp_clamped(0.5, 0.0, 10.0, 1.0, 20.0), 15.0);
  EXPECT_DOUBLE_EQ(lerp_clamped(0.5, 1.0, 7.0, 1.0, 9.0), 7.0);  // degenerate
}

/// The segment search picks, inside the knot range, the segment whose lower
/// knot is the last knot <= x. Expected values below are computed from that
/// segment with the evaluation's own lerp, so the comparison is exact: at
/// every knot, at every midpoint, one ulp either side of every knot, and
/// outside the range in both extrapolation modes.
TEST(CurveTest, SegmentSearchExactAtKnotsMidpointsAndUlpNeighbours) {
  // Uneven spacing, a flat and a falling segment, like the spec curves.
  const std::vector<double> xs = {0.0, 0.05, 0.2, 0.21, 0.5, 0.75, 1.0, 1.5};
  const std::vector<double> ys = {0.6, 0.87, 0.955, 0.96, 0.962, 0.962, 0.95, 0.93};
  const std::size_t n = xs.size();
  auto on_segment = [&](std::size_t lo, double x) {
    const double t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]);
    return ys[lo] + t * (ys[lo + 1] - ys[lo]);
  };
  for (const Extrapolation mode : {Extrapolation::kClamp, Extrapolation::kLinear}) {
    const PiecewiseLinearCurve c(xs, ys, mode);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(c(xs[i]), ys[i]) << "knot " << i;
      if (i + 1 < n) {
        const double mid = 0.5 * (xs[i] + xs[i + 1]);
        EXPECT_EQ(c(mid), on_segment(i, mid)) << "midpoint " << i;
      }
      if (i > 0) {
        const double below = std::nextafter(xs[i], -1e9);
        EXPECT_EQ(c(below), on_segment(i - 1, below)) << "below knot " << i;
      }
      if (i + 1 < n) {
        const double above = std::nextafter(xs[i], 1e9);
        EXPECT_EQ(c(above), on_segment(i, above)) << "above knot " << i;
      }
    }
    const double m_lo = (ys[1] - ys[0]) / (xs[1] - xs[0]);
    const double m_hi = (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2]);
    for (const double x : {std::nextafter(xs[0], -1e9), -0.5, -1e6}) {
      const double want =
          mode == Extrapolation::kClamp ? ys[0] : ys[0] + m_lo * (x - xs[0]);
      EXPECT_EQ(c(x), want) << "below range " << x;
    }
    for (const double x : {std::nextafter(xs[n - 1], 1e9), 2.0, 1e6}) {
      const double want =
          mode == Extrapolation::kClamp ? ys[n - 1] : ys[n - 1] + m_hi * (x - xs[n - 1]);
      EXPECT_EQ(c(x), want) << "above range " << x;
    }
  }
  // Two knots: a single segment.
  const PiecewiseLinearCurve two{{1.0, 10.0}, {3.0, 30.0}};
  EXPECT_EQ(two(2.0), 20.0);
  EXPECT_EQ(two(std::nextafter(3.0, 0.0)), 10.0 + ((std::nextafter(3.0, 0.0) - 1.0) / 2.0) * 20.0);
}

/// Property sweep: interpolation never leaves the convex hull of the knot
/// values, for several representative curves.
class CurveHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(CurveHullProperty, InterpolationStaysWithinKnotRange) {
  const int seed = GetParam();
  std::vector<double> xs;
  std::vector<double> ys;
  double lo = 1e300;
  double hi = -1e300;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(i * 1.5);
    const double y = std::sin(seed * 13.37 + i * 2.1) * 50.0;
    ys.push_back(y);
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  PiecewiseLinearCurve c(xs, ys);
  for (double x = -2.0; x <= 12.0; x += 0.037) {
    const double y = c(x);
    EXPECT_GE(y, lo - 1e-9);
    EXPECT_LE(y, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveHullProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace exadigit
