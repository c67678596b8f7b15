#pragma once

/// @file frame.hpp
/// Columnar telemetry: one contiguous (times, values) column pair per
/// (tag, channel) key.
///
/// The 183-day validation replay (paper Table IV) ingests months of
/// long-format channel telemetry. Loading that by rescanning the document
/// once per channel is O(channels x rows); a TelemetryFrame instead lets a
/// loader bucket rows into channels in a single streaming pass, and lets
/// replay adopt the arrays as TimeSeries without copying. A loaded dataset
/// is a DatasetFrame (store.hpp): a DatasetHeader plus one of these, and
/// every chunk a ChunkedTelemetrySource yields carries one for its window.
///
/// Keys are open-ended: "system"/"facility" tags carry the Table II system
/// and CEP channels, "cdu<i>" tags the per-CDU sensors, and readers for
/// bespoke formats may introduce their own. Channel order is insertion
/// order, which makes frame iteration deterministic for a given source.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time_series.hpp"

namespace exadigit {

struct TelemetryDataset;

/// One telemetry channel: its (tag, channel) key plus parallel sample
/// arrays. Timestamps are expected to be strictly increasing, as enforced
/// when the column is adopted into a TimeSeries.
struct TelemetryChannel {
  std::string tag;
  std::string channel;
  std::vector<double> times;
  std::vector<double> values;

  [[nodiscard]] std::size_t size() const { return times.size(); }
};

/// A columnar set of telemetry channels keyed by (tag, channel).
class TelemetryFrame {
 public:
  TelemetryFrame() = default;

  /// Appends one sample, creating the channel on first use. Consecutive
  /// appends to the same key skip the index lookup (long-format files are
  /// runs of one channel), so streaming ingest is O(rows) with near-zero
  /// per-row overhead.
  void append(std::string_view tag, std::string_view channel, double time, double value);

  /// Moves whole sample arrays in as one channel; the key must be new.
  void adopt_channel(std::string tag, std::string channel, std::vector<double> times,
                     std::vector<double> values);

  /// Bulk append-or-create: adopts the arrays when the key is new, otherwise
  /// appends them to the existing column (chunked ingest revisits the same
  /// keys once per chunk). Timestamps must continue the existing column.
  void append_channel(std::string tag, std::string channel, std::vector<double> times,
                      std::vector<double> values);

  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  /// Total samples across all channels.
  [[nodiscard]] std::size_t sample_count() const;
  /// Bytes of sample payload (the time/value doubles across all channels) —
  /// the unit chunked-source residency accounting is denominated in.
  [[nodiscard]] std::size_t payload_bytes() const {
    return sample_count() * 2 * sizeof(double);
  }
  [[nodiscard]] const std::vector<TelemetryChannel>& channels() const { return channels_; }

  /// The channel at `key`, or nullptr when absent.
  [[nodiscard]] const TelemetryChannel* find(std::string_view tag,
                                             std::string_view channel) const;

  /// Moves one channel's arrays out as a TimeSeries (empty series when
  /// absent); the channel stays registered but becomes empty.
  [[nodiscard]] TimeSeries take_series(std::string_view tag, std::string_view channel);

  /// Columnar copy of every (non-empty) channel of a dataset, under the
  /// native tag/channel names used by the exadigit-csv layout.
  [[nodiscard]] static TelemetryFrame from_dataset(const TelemetryDataset& dataset);

 private:
  TelemetryChannel* find_mutable(std::string_view tag, std::string_view channel);
  TelemetryChannel& channel_for(std::string_view tag, std::string_view channel);

  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) return std::string_view(a.first) < std::string_view(b.first);
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };

  std::vector<TelemetryChannel> channels_;
  std::map<std::pair<std::string, std::string>, std::size_t, KeyLess> index_;
  std::size_t cursor_ = 0;  ///< last-touched channel (streaming fast path)
};

}  // namespace exadigit
