#pragma once

/// @file series_recorder.hpp
/// Block-staged recording of channels sampled at the same instants.
///
/// A coupled twin records its 155 channels (paper Table II: 5 plant series,
/// then 6 per CDU) once per cooling quantum, all at the same times. A
/// SeriesRecorder keeps those times once. It owns the time axis, and every
/// channel attached to it is a TimeSeries whose times() is that axis and
/// whose values are its own (time_series.hpp: attached series). Each
/// sample instant is staged as one row of a block of kStageRows rows. A
/// flush checks the block's timestamps once against the axis, appends them
/// to the axis once, and appends each channel's column to that channel.
/// Between flushes every attached channel holds exactly as many values as
/// the axis holds times.
///
/// The attached channels point at the axis, so a recorder can be neither
/// copied nor moved. Its owner keeps the channels where they are while
/// they are attached and destroys them no later than the recorder.

#include <array>
#include <cstddef>
#include <vector>

#include "common/time_series.hpp"

namespace exadigit {

class SeriesRecorder {
 public:
  /// Rows staged before they are appended: 64 rows of the 155 Frontier
  /// channels is about 80 KB. A constant, not an option.
  static constexpr std::size_t kStageRows = 64;

  SeriesRecorder() = default;
  SeriesRecorder(const SeriesRecorder&) = delete;
  SeriesRecorder& operator=(const SeriesRecorder&) = delete;
  SeriesRecorder(SeriesRecorder&&) = delete;
  SeriesRecorder& operator=(SeriesRecorder&&) = delete;

  /// Attaches `channels`, in stage-column order, before anything is
  /// recorded. Each must be empty and owned; its times() become the axis.
  void attach(std::vector<TimeSeries*> channels);

  /// Number of attached channels; nothing is recorded without any.
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  /// The stage row of the sample at `time`, to be filled with one value
  /// per channel in stage-column order. A full stage is flushed first.
  [[nodiscard]] double* stage_row(double time);

  /// Appends the staged rows to the axis and the channels and empties the
  /// stage. The times must increase past the axis's last one; a rejected
  /// block, like a failed allocation, leaves every channel as it was.
  void flush();

  /// Makes room in the axis and in every channel for `rows` samples
  /// beyond those recorded and staged.
  void reserve(std::size_t rows);

 private:
  std::vector<double> axis_;
  std::vector<TimeSeries*> channels_;
  /// Row-major stage: row r holds every channel's value at stage_times_[r].
  std::vector<double> stage_;
  std::array<double, kStageRows> stage_times_{};
  std::size_t staged_rows_ = 0;
};

}  // namespace exadigit
