#include "common/time_series.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace exadigit {

TimeSeries::TimeSeries(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  require(times_.size() == values_.size(), "time series size mismatch");
  for (std::size_t i = 1; i < times_.size(); ++i) {
    require(times_[i] > times_[i - 1], "time series timestamps must increase");
  }
}

TimeSeries::TimeSeries(const TimeSeries& other) : times_(other.times()), values_(other.values_) {}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept {
  if (other.axis_ != nullptr) {
    // The recorder still appends to the source, so it keeps its samples.
    times_ = *other.axis_;
    values_ = other.values_;
  } else {
    times_ = std::move(other.times_);
    values_ = std::move(other.values_);
  }
}

TimeSeries& TimeSeries::operator=(TimeSeries other) noexcept {
  // `other` owns its times: it was copied or moved from the right-hand side.
  axis_ = nullptr;
  times_ = std::move(other.times_);
  values_ = std::move(other.values_);
  return *this;
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
  check_block(times_, times, n);
  reserve(times_.size() + n);
  times_.insert(times_.end(), times, times + n);
  append_values(values, stride, n);
}

void TimeSeries::reserve(std::size_t n) {
  grow(times_, n);
  grow(values_, n);
}

void TimeSeries::check_block(const std::vector<double>& before, const double* times,
                             std::size_t n) {
  constexpr const char* kOrder = "time series append must increase timestamps";
  require(before.empty() || times[0] > before.back(), kOrder);
  for (std::size_t i = 1; i < n; ++i) require(times[i] > times[i - 1], kOrder);
}

void TimeSeries::grow(std::vector<double>& column, std::size_t n) {
  if (n > column.capacity()) column.reserve(std::max(n, 2 * column.capacity()));
}

void TimeSeries::append_values(const double* values, std::size_t stride, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) values_.push_back(values[i * stride]);
}

double TimeSeries::start_time() const {
  require(!empty(), "start_time of empty series");
  return times().front();
}

double TimeSeries::end_time() const {
  require(!empty(), "end_time of empty series");
  return times().back();
}

double TimeSeries::at(double t, SampleHold hold) const {
  require(!empty(), "at() on empty series");
  const std::vector<double>& times = this->times();
  if (t <= times.front()) return values_.front();
  if (t >= times.back()) return values_.back();
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times.begin());
  const std::size_t lo = hi - 1;
  // At a sample time the sample itself, never a zero weight times a
  // neighbour that may be NaN or infinite.
  if (hold == SampleHold::kPrevious || times[lo] == t) return values_[lo];
  const double span = times[hi] - times[lo];
  const double u = (t - times[lo]) / span;
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
  const std::vector<double>& times = this->times();
  TimeSeries out;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= t_begin && times[i] <= t_end) {
      out.push_back(times[i], values_[i]);
    }
  }
  return out;
}

double TimeSeries::integral(SampleHold hold) const {
  const std::vector<double>& times = this->times();
  if (times.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double dt = times[i] - times[i - 1];
    if (hold == SampleHold::kPrevious) {
      acc += values_[i - 1] * dt;
    } else {
      acc += 0.5 * (values_[i] + values_[i - 1]) * dt;
    }
  }
  return acc;
}

double TimeSeries::time_weighted_mean(SampleHold hold) const {
  if (empty()) return 0.0;
  if (size() == 1) return values_.front();
  const double span = times().back() - times().front();
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
