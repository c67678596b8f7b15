#include "common/series_recorder.hpp"

#include <utility>

#include "common/error.hpp"

namespace exadigit {

void SeriesRecorder::attach(std::vector<TimeSeries*> channels) {
  require(channels_.empty() && axis_.empty(), "a recorder attaches its channels once");
  for (const TimeSeries* series : channels) {
    require(series->empty() && series->axis_ == nullptr,
            "only an empty, owned series can be attached");
  }
  channels_ = std::move(channels);
  for (TimeSeries* series : channels_) series->axis_ = &axis_;
  stage_.resize(kStageRows * channels_.size());
}

double* SeriesRecorder::stage_row(double time) {
  if (staged_rows_ == kStageRows) flush();
  stage_times_[staged_rows_] = time;
  return stage_.data() + staged_rows_++ * channels_.size();
}

void SeriesRecorder::flush() {
  if (staged_rows_ == 0) return;
  TimeSeries::check_block(axis_, stage_times_.data(), staged_rows_);
  // Every allocation comes before the first append, so a failed one
  // leaves the axis and the channels the same size.
  const std::size_t size = axis_.size() + staged_rows_;
  TimeSeries::grow(axis_, size);
  for (TimeSeries* series : channels_) TimeSeries::grow(series->values_, size);
  axis_.insert(axis_.end(), stage_times_.begin(), stage_times_.begin() + staged_rows_);
  const std::size_t stride = channels_.size();
  for (std::size_t c = 0; c < stride; ++c) {
    channels_[c]->append_values(stage_.data() + c, stride, staged_rows_);
  }
  staged_rows_ = 0;
}

void SeriesRecorder::reserve(std::size_t rows) {
  if (channels_.empty()) return;
  const std::size_t size = axis_.size() + staged_rows_ + rows;
  TimeSeries::grow(axis_, size);
  for (TimeSeries* series : channels_) TimeSeries::grow(series->values_, size);
}

}  // namespace exadigit
