#include "common/time_series.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace exadigit {

TimeSeries::TimeSeries(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  require(times_.size() == values_.size(), "time series size mismatch");
  for (std::size_t i = 1; i < times_.size(); ++i) {
    require(times_[i] > times_[i - 1], "time series timestamps must increase");
  }
}

TimeSeries TimeSeries::uniform(double t0, double dt, std::vector<double> values) {
  require(dt > 0, "uniform series requires dt > 0");
  std::vector<double> times(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    times[i] = t0 + static_cast<double>(i) * dt;
  }
  return TimeSeries(std::move(times), std::move(values));
}

void TimeSeries::push_back(double time, double value) {
  require(times_.empty() || time > times_.back(),
          "time series append must increase timestamps");
  times_.push_back(time);
  values_.push_back(value);
}

void TimeSeries::append(const double* times, const double* values, std::size_t stride,
                        std::size_t n) {
  if (n == 0) return;
  constexpr const char* kOrder = "time series append must increase timestamps";
  require(times_.empty() || times[0] > times_.back(), kOrder);
  for (std::size_t i = 1; i < n; ++i) require(times[i] > times[i - 1], kOrder);
  reserve(times_.size() + n);
  times_.insert(times_.end(), times, times + n);
  for (std::size_t i = 0; i < n; ++i) values_.push_back(values[i * stride]);
}

void TimeSeries::reserve(std::size_t n) {
  if (n <= times_.capacity()) return;
  const std::size_t grown = std::max(n, 2 * times_.capacity());
  times_.reserve(grown);
  values_.reserve(grown);
}

double TimeSeries::start_time() const {
  require(!times_.empty(), "start_time of empty series");
  return times_.front();
}

double TimeSeries::end_time() const {
  require(!times_.empty(), "end_time of empty series");
  return times_.back();
}

double TimeSeries::at(double t, SampleHold hold) const {
  require(!times_.empty(), "at() on empty series");
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  // At a sample time the sample itself, never a zero weight times a
  // neighbour that may be NaN or infinite.
  if (hold == SampleHold::kPrevious || times_[lo] == t) return values_[lo];
  const double span = times_[hi] - times_[lo];
  const double u = (t - times_[lo]) / span;
  return values_[lo] + u * (values_[hi] - values_[lo]);
}

TimeSeries TimeSeries::resample(double t0, double dt, std::size_t n, SampleHold hold) const {
  require(dt > 0, "resample requires dt > 0");
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = at(t0 + static_cast<double>(i) * dt, hold);
  }
  return TimeSeries::uniform(t0, dt, std::move(values));
}

TimeSeries TimeSeries::slice(double t_begin, double t_end) const {
  TimeSeries out;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] >= t_begin && times_[i] <= t_end) {
      out.push_back(times_[i], values_[i]);
    }
  }
  return out;
}

double TimeSeries::integral(SampleHold hold) const {
  if (times_.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const double dt = times_[i] - times_[i - 1];
    if (hold == SampleHold::kPrevious) {
      acc += values_[i - 1] * dt;
    } else {
      acc += 0.5 * (values_[i] + values_[i - 1]) * dt;
    }
  }
  return acc;
}

double TimeSeries::time_weighted_mean(SampleHold hold) const {
  if (times_.empty()) return 0.0;
  if (times_.size() == 1) return values_.front();
  const double span = times_.back() - times_.front();
  return integral(hold) / span;
}

double TimeSeries::min_value() const {
  require(!values_.empty(), "min_value of empty series");
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::max_value() const {
  require(!values_.empty(), "max_value of empty series");
  return *std::max_element(values_.begin(), values_.end());
}

}  // namespace exadigit
