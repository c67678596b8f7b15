#include "common/time_series.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace exadigit {
namespace {

TEST(TimeSeriesTest, UniformConstruction) {
  TimeSeries s = TimeSeries::uniform(10.0, 5.0, {1.0, 2.0, 3.0});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.time(0), 10.0);
  EXPECT_DOUBLE_EQ(s.time(2), 20.0);
  EXPECT_DOUBLE_EQ(s.start_time(), 10.0);
  EXPECT_DOUBLE_EQ(s.end_time(), 20.0);
}

TEST(TimeSeriesTest, RejectsNonIncreasingTimestamps) {
  EXPECT_THROW(TimeSeries({0.0, 0.0}, {1.0, 2.0}), ConfigError);
  EXPECT_THROW(TimeSeries({1.0, 0.5}, {1.0, 2.0}), ConfigError);
  TimeSeries s;
  s.push_back(1.0, 0.0);
  EXPECT_THROW(s.push_back(1.0, 0.0), ConfigError);
}

TEST(TimeSeriesTest, BulkAppendGathersStridedColumn) {
  // Three rows of a two-channel row-major block.
  const double times[] = {1.0, 2.0, 3.0};
  const double block[] = {10.0, 20.0, 11.0, 21.0, 12.0, 22.0};
  TimeSeries first;
  first.push_back(0.5, 9.0);
  first.append(times, block, 2, 3);
  TimeSeries second;
  second.append(times, block + 1, 2, 3);
  EXPECT_EQ(first.times(), (std::vector<double>{0.5, 1.0, 2.0, 3.0}));
  EXPECT_EQ(first.values(), (std::vector<double>{9.0, 10.0, 11.0, 12.0}));
  EXPECT_EQ(second.times(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(second.values(), (std::vector<double>{20.0, 21.0, 22.0}));
  second.append(times, block, 2, 0);  // an empty block is a no-op
  EXPECT_EQ(second.size(), 3u);
}

TEST(TimeSeriesTest, BulkAppendRejectsNonIncreasingAndLeavesSeriesUnchanged) {
  TimeSeries s({0.0, 1.0}, {5.0, 6.0});
  const double values[] = {7.0, 8.0, 9.0};
  // At the seam, the first timestamp must exceed back().
  const double at_seam[] = {1.0, 2.0, 3.0};
  EXPECT_THROW(s.append(at_seam, values, 1, 3), ConfigError);
  // Inside the block, a repeated and a decreasing timestamp.
  const double repeated[] = {2.0, 3.0, 3.0};
  EXPECT_THROW(s.append(repeated, values, 1, 3), ConfigError);
  const double backwards[] = {2.0, 4.0, 3.0};
  EXPECT_THROW(s.append(backwards, values, 1, 3), ConfigError);
  EXPECT_EQ(s.times(), (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(s.values(), (std::vector<double>{5.0, 6.0}));
}

TEST(TimeSeriesTest, ReserveKeepsContentsAndGrowsGeometrically) {
  TimeSeries s({0.0, 1.0, 2.0}, {3.0, 4.0, 5.0});
  s.reserve(1000);
  s.reserve(2);  // never shrinks
  EXPECT_EQ(s.times(), (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_EQ(s.values(), (std::vector<double>{3.0, 4.0, 5.0}));
  const std::size_t capacity = s.times().capacity();
  EXPECT_GE(capacity, 1000u);
  // A reserve just past the capacity at least doubles it, so reserving per
  // chunk of a long run stays linear.
  s.reserve(capacity + 1);
  EXPECT_GE(s.times().capacity(), 2 * capacity);
  EXPECT_GE(s.values().capacity(), 2 * capacity);
  s.push_back(3.0, 6.0);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.value(3), 6.0);
}

TEST(TimeSeriesTest, RejectsSizeMismatch) {
  EXPECT_THROW(TimeSeries({0.0, 1.0}, {1.0}), ConfigError);
}

TEST(TimeSeriesTest, LinearInterpolation) {
  TimeSeries s({0.0, 10.0}, {0.0, 100.0});
  EXPECT_DOUBLE_EQ(s.at(5.0), 50.0);
  EXPECT_DOUBLE_EQ(s.at(2.5), 25.0);
}

TEST(TimeSeriesTest, PreviousHold) {
  TimeSeries s({0.0, 10.0}, {7.0, 100.0});
  EXPECT_DOUBLE_EQ(s.at(9.999, SampleHold::kPrevious), 7.0);
  EXPECT_DOUBLE_EQ(s.at(10.0, SampleHold::kPrevious), 100.0);
}

TEST(TimeSeriesTest, SampleTimeReadsSampleWhateverItsNeighbours) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double neighbour : {nan, inf, -inf}) {
    const TimeSeries s({0.0, 60.0, 120.0, 180.0}, {16.0, 17.0, neighbour, 18.0});
    EXPECT_EQ(s.at(60.0), 17.0) << neighbour;   // next sample is non-finite
    EXPECT_EQ(s.at(180.0), 18.0) << neighbour;  // previous sample is
    EXPECT_EQ(s.at(0.0), 16.0) << neighbour;
    const double mid = s.at(120.0);
    EXPECT_TRUE(std::isnan(neighbour) ? std::isnan(mid) : mid == neighbour) << neighbour;
    // Between samples the non-finite neighbour still shows.
    EXPECT_FALSE(std::isfinite(s.at(90.0))) << neighbour;
    EXPECT_FALSE(std::isfinite(s.at(150.0))) << neighbour;
  }
}

TEST(TimeSeriesTest, BoundaryHold) {
  TimeSeries s({5.0, 10.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.at(0.0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(100.0), 4.0);
}

TEST(TimeSeriesTest, ResampleOntoFinerGrid) {
  TimeSeries s({0.0, 10.0}, {0.0, 10.0});
  TimeSeries r = s.resample(0.0, 2.5, 5);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.value(1), 2.5);
  EXPECT_DOUBLE_EQ(r.value(4), 10.0);
}

TEST(TimeSeriesTest, SliceKeepsInclusiveWindow) {
  TimeSeries s = TimeSeries::uniform(0.0, 1.0, {0, 1, 2, 3, 4, 5});
  TimeSeries cut = s.slice(1.5, 4.0);
  ASSERT_EQ(cut.size(), 3u);
  EXPECT_DOUBLE_EQ(cut.time(0), 2.0);
  EXPECT_DOUBLE_EQ(cut.time(2), 4.0);
}

TEST(TimeSeriesTest, IntegralTrapezoidal) {
  TimeSeries s({0.0, 2.0}, {0.0, 10.0});  // triangle, area 10
  EXPECT_DOUBLE_EQ(s.integral(), 10.0);
}

TEST(TimeSeriesTest, IntegralRectangleForPreviousHold) {
  TimeSeries s({0.0, 2.0, 3.0}, {4.0, 8.0, 0.0});
  // 4*2 + 8*1 = 16 with zero-order hold.
  EXPECT_DOUBLE_EQ(s.integral(SampleHold::kPrevious), 16.0);
}

TEST(TimeSeriesTest, TimeWeightedMeanMatchesHandComputation) {
  TimeSeries s({0.0, 1.0, 3.0}, {2.0, 2.0, 6.0});
  // trapezoid: (2*1 + (2+6)/2*2)/3 = (2+8)/3
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(), 10.0 / 3.0);
}

TEST(TimeSeriesTest, MeanOfEmptyIsZero) {
  TimeSeries s;
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(), 0.0);
}

TEST(TimeSeriesTest, MinMaxValues) {
  TimeSeries s = TimeSeries::uniform(0.0, 1.0, {3.0, -1.0, 7.0});
  EXPECT_DOUBLE_EQ(s.min_value(), -1.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
}

TEST(TimeSeriesTest, EmptyAccessorsThrow) {
  TimeSeries s;
  EXPECT_THROW(s.start_time(), ConfigError);
  EXPECT_THROW(s.at(0.0), ConfigError);
  EXPECT_THROW(s.min_value(), ConfigError);
}

/// Property: resampling a series onto its own grid is the identity, for a
/// family of sinusoid series.
class ResampleIdentityProperty : public ::testing::TestWithParam<int> {};

TEST_P(ResampleIdentityProperty, ResampleOnOwnGridIsIdentity) {
  const int n = GetParam();
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = std::sin(0.3 * i) * i;
  TimeSeries s = TimeSeries::uniform(2.0, 1.5, v);
  TimeSeries r = s.resample(2.0, 1.5, static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.value(static_cast<std::size_t>(i)), s.value(static_cast<std::size_t>(i)),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResampleIdentityProperty, ::testing::Values(2, 5, 17, 100));

}  // namespace
}  // namespace exadigit
