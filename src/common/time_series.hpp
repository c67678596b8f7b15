#pragma once

/// @file time_series.hpp
/// Uniformly- and irregularly-sampled scalar time series.
///
/// Telemetry channels in the twin arrive at wildly different resolutions
/// (1 s system power, 15 s CDU sensors, 60 s wet bulb, 10 min pump power —
/// paper Table II). TimeSeries provides the resampling and interpolation
/// needed to align them on a common clock for replay and validation scoring.
///
/// Owned and attached series. A series normally owns its timestamps. A
/// series attached to a SeriesRecorder (common/series_recorder.hpp) owns
/// only its values: its times() is the recorder's axis, shared with every
/// other channel recorded at the same instants, and only the recorder
/// appends to it. Both read alike. A copy or a move of an attached series
/// owns its times, so it keeps its size and bits whatever the recorder
/// appends later, and it outlives the recorder.

#include <cstddef>
#include <vector>

namespace exadigit {

/// How values between samples are reconstructed.
enum class SampleHold {
  kPrevious,  ///< zero-order hold (telemetry counters, staging integers)
  kLinear,    ///< linear interpolation (continuous physical quantities)
};

/// A scalar time series: strictly increasing timestamps (seconds) + values.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Builds a series from parallel arrays. Timestamps must be strictly
  /// increasing and the arrays equally sized.
  TimeSeries(std::vector<double> times, std::vector<double> values);

  /// Copies and moves own their times (see the file header). Moving an
  /// attached series copies it and leaves the source unchanged: that copy
  /// allocates inside a noexcept move, which no recorder owner performs.
  TimeSeries(const TimeSeries& other);
  TimeSeries(TimeSeries&& other) noexcept;
  TimeSeries& operator=(TimeSeries other) noexcept;

  /// Builds a uniformly sampled series starting at `t0` with period `dt`.
  static TimeSeries uniform(double t0, double dt, std::vector<double> values);

  /// Appends a sample to an owned series; its timestamp must exceed the
  /// last one.
  void push_back(double time, double value);

  /// Appends `n` samples to an owned series: times[i] with values[i *
  /// stride]. Every timestamp must exceed the one before it (the first
  /// one, back()). All are checked before the series changes, so a
  /// rejected block leaves it untouched.
  void append(const double* times, const double* values, std::size_t stride, std::size_t n);

  /// Makes room for `n` samples in total in an owned series. When the
  /// capacity must grow it grows to at least twice its old value.
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double time(std::size_t i) const { return times().at(i); }
  [[nodiscard]] double value(std::size_t i) const { return values_.at(i); }
  /// The timestamps: the series' own, or the recorder's axis when attached.
  [[nodiscard]] const std::vector<double>& times() const {
    return axis_ != nullptr ? *axis_ : times_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double start_time() const;
  [[nodiscard]] double end_time() const;

  /// Value at time `t` with the requested reconstruction. At a sample time
  /// it is that sample, whatever its neighbours hold; outside the series
  /// range the boundary value is held.
  [[nodiscard]] double at(double t, SampleHold hold = SampleHold::kLinear) const;

  /// Resamples onto a uniform grid [t0, t0+dt, ...] with `n` samples.
  [[nodiscard]] TimeSeries resample(double t0, double dt, std::size_t n,
                                    SampleHold hold = SampleHold::kLinear) const;

  /// Restricts the series to samples with t in [t_begin, t_end].
  [[nodiscard]] TimeSeries slice(double t_begin, double t_end) const;

  /// Time-weighted mean over the sampled span (trapezoidal for kLinear,
  /// rectangle rule for kPrevious). Returns 0 for an empty series.
  [[nodiscard]] double time_weighted_mean(SampleHold hold = SampleHold::kLinear) const;

  /// Integral of the series over its span (e.g. W -> J).
  [[nodiscard]] double integral(SampleHold hold = SampleHold::kLinear) const;

  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

 private:
  friend class SeriesRecorder;

  /// Throws unless times[0..n) increase strictly and lie after `before`'s
  /// last element.
  static void check_block(const std::vector<double>& before, const double* times, std::size_t n);
  /// Makes room for `n` elements, at least doubling the capacity when it
  /// must grow.
  static void grow(std::vector<double>& column, std::size_t n);
  /// Appends values[i * stride] for i < n.
  void append_values(const double* values, std::size_t stride, std::size_t n);

  /// The recorder's axis while attached; null when the series owns times_.
  const std::vector<double>* axis_ = nullptr;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace exadigit
