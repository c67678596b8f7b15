#include "telemetry/frame.hpp"

#include "common/error.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

void TelemetryFrame::append(std::string_view tag, std::string_view channel, double time,
                            double value) {
  TelemetryChannel& ch = channel_for(tag, channel);
  ch.times.push_back(time);
  ch.values.push_back(value);
}

void TelemetryFrame::adopt_channel(std::string tag, std::string channel,
                                   std::vector<double> times, std::vector<double> values) {
  require(times.size() == values.size(), "frame channel arrays must be equally sized");
  const auto key = std::make_pair(std::string_view(tag), std::string_view(channel));
  require(index_.find(key) == index_.end(), "frame channel already exists");
  index_.emplace(std::make_pair(tag, channel), channels_.size());
  cursor_ = channels_.size();
  channels_.push_back(
      TelemetryChannel{std::move(tag), std::move(channel), std::move(times), std::move(values)});
}

void TelemetryFrame::append_channel(std::string tag, std::string channel,
                                    std::vector<double> times, std::vector<double> values) {
  require(times.size() == values.size(), "frame channel arrays must be equally sized");
  TelemetryChannel* existing = find_mutable(tag, channel);
  if (existing == nullptr) {
    adopt_channel(std::move(tag), std::move(channel), std::move(times), std::move(values));
    return;
  }
  existing->times.insert(existing->times.end(), times.begin(), times.end());
  existing->values.insert(existing->values.end(), values.begin(), values.end());
}

std::size_t TelemetryFrame::sample_count() const {
  std::size_t n = 0;
  for (const TelemetryChannel& ch : channels_) n += ch.size();
  return n;
}

TelemetryChannel* TelemetryFrame::find_mutable(std::string_view tag, std::string_view channel) {
  if (cursor_ < channels_.size() && channels_[cursor_].tag == tag &&
      channels_[cursor_].channel == channel) {
    return &channels_[cursor_];
  }
  const auto it = index_.find(std::make_pair(tag, channel));
  if (it == index_.end()) return nullptr;
  cursor_ = it->second;
  return &channels_[it->second];
}

TelemetryChannel& TelemetryFrame::channel_for(std::string_view tag, std::string_view channel) {
  if (TelemetryChannel* existing = find_mutable(tag, channel)) return *existing;
  index_.emplace(std::make_pair(std::string(tag), std::string(channel)), channels_.size());
  cursor_ = channels_.size();
  channels_.push_back(TelemetryChannel{std::string(tag), std::string(channel), {}, {}});
  return channels_.back();
}

const TelemetryChannel* TelemetryFrame::find(std::string_view tag,
                                             std::string_view channel) const {
  const auto it = index_.find(std::make_pair(tag, channel));
  return it == index_.end() ? nullptr : &channels_[it->second];
}

TimeSeries TelemetryFrame::take_series(std::string_view tag, std::string_view channel) {
  TelemetryChannel* ch = find_mutable(tag, channel);
  if (ch == nullptr) return TimeSeries{};
  return TimeSeries(std::move(ch->times), std::move(ch->values));
}

TelemetryFrame TelemetryFrame::from_dataset(const TelemetryDataset& dataset) {
  TelemetryFrame frame;
  for_each_channel(dataset, [&frame](const std::string& tag, const char* name,
                                     const TimeSeries& s) {
    if (!s.empty()) frame.adopt_channel(tag, name, s.times(), s.values());
  });
  return frame;
}

}  // namespace exadigit
