#pragma once

/// @file chunk.hpp
/// Pull-based chunked telemetry: bounded time-window slabs of channel data.
///
/// The paper's Table IV replay covers 183 days of Frontier telemetry; holding
/// every channel of that span in memory is the twin's largest scalability
/// cliff. A ChunkedTelemetrySource instead hands the replay engine one
/// bounded time window at a time — the consumer extracts what it needs,
/// releases the chunk, and pulls the next — so peak telemetry residency is
/// one chunk, not one dataset. The same pull interface is the seam for a
/// *live* twin: a producer thread appends windows as a running system emits
/// them (LiveAppendSource) while the replay thread consumes.
///
/// Three sources cover the spectrum:
///  - InMemoryChunkSource: slices an already-loaded DatasetFrame into
///    windows, or hands it over whole with no copy. As one chunk it is how
///    every in-memory replay_power overload reaches the chunked loop.
///  - BinChunkSource: streams exadigit-bin chunks straight off disk using
///    the manifest's chunk index (format v2); legacy single-block v1 files
///    read as one chunk. Enforces an optional resident-bytes budget. Its
///    chunk-block decoder is the one exadigit-bin reader: a replay streams
///    through it, and load_dataset_frame drains it whole (load()).
///  - LiveAppendSource: a thread-safe bounded ring with producer-side
///    backpressure and a clean end-of-stream, for future network ingest.
///
/// Every source passes its DatasetHeader (schema.hpp) to the one
/// ChunkedTelemetrySource constructor, which validates it, so no source
/// exists with an unchecked header.
///
/// Every chunk registers its payload bytes with the source's ResidencyGauge
/// on construction and deregisters on release/destruction, so tests and
/// benches can assert "never held more than X bytes" from the source side.
///
/// Channel selection: a consumer names the channels it reads on the
/// TelemetryChunk it passes to next() (chunk.select({...})), and a source
/// may then leave every other channel out of the window. The selection
/// belongs to the chunk object, not to the window it holds: it survives
/// release() and a source's refill of the chunk (move-assignment carries
/// the window, never the selection), so it is set once before the first
/// pull, and a decorator that forwards next(out) forwards it too. An empty
/// selection means every channel. A selection is a promise about what is
/// read, not a filter: BinChunkSource seeks past unselected channel blocks
/// without decoding them, InMemoryChunkSource's windowing loop skips them,
/// and the whole-frame handover and LiveAppendSource may return more.
/// Residency and read accounting count the decoded channels only.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/store.hpp"

namespace exadigit {

/// Resident-bytes accounting shared by every chunk of a source: current
/// registers live chunk payloads, peak is the high-water mark. Thread-safe
/// (LiveAppendSource chunks are constructed on the producer thread and
/// released on the consumer thread).
class ResidencyGauge {
 public:
  void add(std::size_t bytes) {
    const std::size_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void sub(std::size_t bytes) { current_.fetch_sub(bytes, std::memory_order_relaxed); }
  [[nodiscard]] std::size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

/// A (tag, channel) key naming one telemetry channel.
struct ChannelKey {
  std::string tag;
  std::string channel;
};

/// One bounded time window of telemetry: a TelemetryFrame restricted to
/// samples with time in [start_time_s, end_time_s) — the stream's first and
/// last windows absorb any out-of-range samples so no sample is ever
/// dropped. Move-only; the payload is registered with the originating
/// source's ResidencyGauge until release() or destruction. The consumer's
/// channel selection (see the file comment) stays with the object: moves
/// transfer the window only.
class TelemetryChunk {
 public:
  TelemetryChunk() = default;
  TelemetryChunk(std::size_t index, double start_time_s, double end_time_s,
                 TelemetryFrame frame, std::shared_ptr<ResidencyGauge> gauge);
  ~TelemetryChunk() { release(); }

  TelemetryChunk(TelemetryChunk&& other) noexcept;
  TelemetryChunk& operator=(TelemetryChunk&& other) noexcept;
  TelemetryChunk(const TelemetryChunk&) = delete;
  TelemetryChunk& operator=(const TelemetryChunk&) = delete;

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] double start_time_s() const { return start_time_s_; }
  [[nodiscard]] double end_time_s() const { return end_time_s_; }
  [[nodiscard]] const TelemetryFrame& frame() const { return frame_; }
  [[nodiscard]] std::size_t payload_bytes() const { return bytes_; }

  /// Drops the channel storage and deregisters from the gauge. Consumers
  /// call this (or let the chunk go out of scope) before pulling the next
  /// chunk so residency never covers two windows at once. The selection
  /// stays.
  void release();

  /// Names the only channels the consumer reads from the windows pulled
  /// into this chunk; empty (the default) means every channel.
  void select(std::vector<ChannelKey> channels) { selection_ = std::move(channels); }
  /// True when the selection is empty or names (tag, channel).
  [[nodiscard]] bool selects(std::string_view tag, std::string_view channel) const;

 private:
  std::size_t index_ = 0;
  double start_time_s_ = 0.0;
  double end_time_s_ = 0.0;
  TelemetryFrame frame_;
  std::size_t bytes_ = 0;
  std::shared_ptr<ResidencyGauge> gauge_;
  std::vector<ChannelKey> selection_;  ///< not moved: see the class comment
};

/// Pull interface over a stream of time-ordered telemetry chunks. next()
/// yields consecutive windows covering [header().start_time_s,
/// header().end_time_s()] and returns false at end-of-stream.
class ChunkedTelemetrySource {
 public:
  virtual ~ChunkedTelemetrySource() = default;

  [[nodiscard]] const DatasetHeader& header() const { return header_; }
  /// Fills `out` with the next chunk, holding at least the channels `out`
  /// selects; false once the stream is exhausted.
  [[nodiscard]] virtual bool next(TelemetryChunk& out) = 0;
  [[nodiscard]] const std::shared_ptr<ResidencyGauge>& gauge() const { return gauge_; }

 protected:
  /// Every source hands its header in here, where it is validated.
  explicit ChunkedTelemetrySource(DatasetHeader header) : header_(std::move(header)) {
    header_.validate();
  }

  DatasetHeader header_;
  std::shared_ptr<ResidencyGauge> gauge_ = std::make_shared<ResidencyGauge>();
};

/// Slices an already-loaded DatasetFrame into chunk_seconds windows,
/// copying only the selected channels into each. With chunk_seconds <= 0
/// the whole frame moves into a single chunk (zero copies, every channel)
/// — the adapter that makes the monolithic overloads chunked.
class InMemoryChunkSource final : public ChunkedTelemetrySource {
 public:
  /// Most windows one source may cut: 2^22, about 4.2 million (a 183-day
  /// span in 15 s windows is 1,054,080). Throws TelemetryError naming
  /// chunk_seconds when the window count is not finite or exceeds it.
  static constexpr double kMaxChunks = 4194304.0;

  explicit InMemoryChunkSource(DatasetFrame frame, double chunk_seconds = 0.0);

  [[nodiscard]] bool next(TelemetryChunk& out) override;
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }

 private:
  TelemetryFrame frame_;
  double chunk_seconds_ = 0.0;
  std::size_t chunk_count_ = 1;
  std::size_t next_index_ = 0;
  std::vector<std::size_t> cursors_;  ///< per-channel next-sample index
};

/// Streams exadigit-bin chunks off disk one window at a time. v2 files are
/// read through the manifest chunk index (which read_manifest checks tiles
/// channels.bin); legacy v1 single-block files are served as one chunk.
/// Every channel block's name and count are read, and its samples must end
/// inside the chunk's index entry; the samples of a block the chunk does
/// not select are seeked past. Never holds more than one decoded window
/// itself; with a max_resident_mb budget, refuses to decode a chunk that
/// would push gauge residency past the budget while a previous chunk is
/// still live (a single chunk is always allowed, so the budget cannot
/// deadlock the stream — it only forces release-before-next discipline).
class BinChunkSource final : public ChunkedTelemetrySource {
 public:
  struct Options {
    double max_resident_mb = 0.0;  ///< 0 = unlimited
  };

  explicit BinChunkSource(const std::string& directory) : BinChunkSource(directory, Options{}) {}
  BinChunkSource(const std::string& directory, Options options);

  [[nodiscard]] bool next(TelemetryChunk& out) override;
  [[nodiscard]] const std::vector<ChunkIndexEntry>& chunk_index() const { return index_; }

  /// Decodes every channel of every chunk, in index order, into one frame
  /// whose columns concatenate the windows (load_dataset_frame's
  /// exadigit-bin read). The residency gauge is not involved.
  [[nodiscard]] static DatasetFrame load(const std::string& directory);

 private:
  BinChunkSource(const std::string& directory, Options options, DatasetManifest manifest);
  /// Seeks to `entry` and appends its block's selected channels to `frame`.
  void decode(const ChunkIndexEntry& entry, const TelemetryChunk& selection,
              TelemetryFrame& frame);

  std::string path_;
  std::ifstream file_;
  Options options_;
  std::vector<ChunkIndexEntry> index_;
  std::size_t next_chunk_ = 0;
  std::uintmax_t file_size_ = 0;
};

/// Thread-safe bounded ring of chunks: a producer push()es time-ordered
/// windows (blocking while the ring is full — backpressure), the consumer
/// next()s them off. close() marks a clean end-of-stream; next() then
/// drains the ring and returns false. The ingest seam for a live twin.
class LiveAppendSource final : public ChunkedTelemetrySource {
 public:
  LiveAppendSource(DatasetHeader header, std::size_t capacity = 4);

  /// Appends one window; blocks while the ring holds `capacity` chunks.
  /// Throws TelemetryError if the source is closed.
  void push(double start_time_s, double end_time_s, TelemetryFrame frame);
  /// Non-blocking push; false when the ring is full. Throws when closed.
  [[nodiscard]] bool try_push(double start_time_s, double end_time_s, TelemetryFrame frame);
  /// Marks end-of-stream; wakes blocked producers and the consumer.
  void close();
  [[nodiscard]] bool closed() const;

  [[nodiscard]] bool next(TelemetryChunk& out) override;

 private:
  void push_locked(std::unique_lock<std::mutex>& lock, double start_time_s, double end_time_s,
                   TelemetryFrame frame);

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<TelemetryChunk> ring_;
  std::size_t capacity_ = 4;
  std::size_t next_index_ = 0;
  bool closed_ = false;
};

/// Incremental exadigit-bin v2 writer: append time-ordered windows, then
/// finish() writes jobs.json and a manifest carrying the chunk index
/// (channels.bin is written first so the index can record real offsets).
class ChunkedBinWriter {
 public:
  ChunkedBinWriter(std::string directory, DatasetHeader header);

  /// Appends one chunk block covering [start_time_s, end_time_s).
  void append(double start_time_s, double end_time_s, const TelemetryFrame& frame);
  /// Writes manifest.json + jobs.json; the writer is unusable afterwards.
  void finish();
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  std::string directory_;
  DatasetManifest manifest_;  ///< the header plus the chunk index built so far
  std::ofstream file_;
  std::uint64_t offset_ = 0;
  bool finished_ = false;
};

/// Saves a dataset in the exadigit-bin v2 chunked layout: channel data split
/// into chunk_seconds windows, manifest carrying the chunk index. With
/// chunk_seconds <= 0 the whole span is one chunk.
void save_dataset_binary_chunked(const TelemetryDataset& dataset, const std::string& directory,
                                 double chunk_seconds);

/// Rewraps a materialized dataset as a columnar DatasetFrame (copying the
/// header and the channel arrays), so it can be sliced through an
/// InMemoryChunkSource.
[[nodiscard]] DatasetFrame dataset_to_frame(const TelemetryDataset& dataset);

/// Total sample-payload bytes of a dataset (the doubles across all series),
/// the same accounting ResidencyGauge uses for chunks. Used by the server's
/// bytes-based resident LRU.
[[nodiscard]] std::size_t dataset_payload_bytes(const TelemetryDataset& dataset);

}  // namespace exadigit
