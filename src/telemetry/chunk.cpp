#include "telemetry/chunk.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/bin_format.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// The header (jobs included) and chunk index of an exadigit-bin dataset.
/// The format is checked before jobs.json is read.
DatasetManifest read_bin_manifest(const std::string& directory) {
  DatasetManifest manifest = read_manifest(directory);
  if (manifest.format != kExadigitBinFormat) {
    throw TelemetryError("chunked read needs an exadigit-bin dataset, manifest says '" +
                         manifest.format + "'");
  }
  manifest.header.jobs = read_jobs(directory);
  return manifest;
}

/// Writes one v2 chunk block (u64 channel_count + non-empty channel blocks).
void write_chunk_block(std::ostream& os, const TelemetryFrame& frame) {
  std::uint64_t count = 0;
  for (const TelemetryChannel& ch : frame.channels()) {
    if (!ch.times.empty()) ++count;
  }
  binfmt::write_pod<std::uint64_t>(os, count);
  for (const TelemetryChannel& ch : frame.channels()) {
    if (ch.times.empty()) continue;
    binfmt::write_channel_block(os, ch.tag, ch.channel, ch.times, ch.values);
  }
}

/// Reads the chunk block `entry` points at (the stream is positioned
/// there) into `frame`, appending to channels it already holds, decoding
/// the channels `selection` selects and seeking past the samples of every
/// other one.
void read_chunk_block(std::istream& is, const ChunkIndexEntry& entry, std::uintmax_t file_size,
                      const std::string& path, const TelemetryChunk& selection,
                      TelemetryFrame& frame) {
  const auto count = binfmt::read_pod<std::uint64_t>(is, "chunk channel count");
  const std::uint64_t entry_end = entry.offset + entry.bytes;
  std::uint64_t offset = entry.offset + sizeof(std::uint64_t);  // of the next block
  std::uint64_t samples = 0;
  for (std::uint64_t c = 0; c < count; ++c) {
    binfmt::ChannelBlockHeader header = binfmt::read_channel_header(is, file_size);
    offset += header.bytes();
    // The samples must end inside the chunk's index entry, which lies
    // inside the file (read_manifest checks the index tiles it), so a
    // corrupt count can neither read nor seek into another chunk.
    if (offset > entry_end || header.samples > (entry_end - offset) / (2 * sizeof(double))) {
      throw binfmt::truncated_samples(path);
    }
    const std::uint64_t sample_bytes = header.samples * 2 * sizeof(double);
    if (selection.selects(header.tag, header.channel)) {
      samples += header.samples;
      binfmt::ChannelBlock block = binfmt::read_channel_samples(is, std::move(header), path);
      frame.append_channel(std::move(block.tag), std::move(block.channel),
                           std::move(block.times), std::move(block.values));
    } else {
      is.seekg(static_cast<std::streamoff>(offset + sample_bytes));
      if (!is.good()) throw binfmt::truncated_samples(path);
    }
    offset += sample_bytes;
  }
  binfmt::note_binary_read(samples);
}

}  // namespace

// ----------------------------------------------------------- TelemetryChunk

TelemetryChunk::TelemetryChunk(std::size_t index, double start_time_s, double end_time_s,
                               TelemetryFrame frame, std::shared_ptr<ResidencyGauge> gauge)
    : index_(index),
      start_time_s_(start_time_s),
      end_time_s_(end_time_s),
      frame_(std::move(frame)),
      bytes_(frame_.payload_bytes()),
      gauge_(std::move(gauge)) {
  if (gauge_) gauge_->add(bytes_);
}

// The moves carry the window and leave both selections where they are.
TelemetryChunk::TelemetryChunk(TelemetryChunk&& other) noexcept
    : index_(other.index_),
      start_time_s_(other.start_time_s_),
      end_time_s_(other.end_time_s_),
      frame_(std::move(other.frame_)),
      bytes_(other.bytes_),
      gauge_(std::move(other.gauge_)) {
  other.bytes_ = 0;
  other.gauge_.reset();
}

TelemetryChunk& TelemetryChunk::operator=(TelemetryChunk&& other) noexcept {
  if (this != &other) {
    release();
    index_ = other.index_;
    start_time_s_ = other.start_time_s_;
    end_time_s_ = other.end_time_s_;
    frame_ = std::move(other.frame_);
    bytes_ = other.bytes_;
    gauge_ = std::move(other.gauge_);
    other.bytes_ = 0;
    other.gauge_.reset();
  }
  return *this;
}

void TelemetryChunk::release() {
  if (gauge_) gauge_->sub(bytes_);
  gauge_.reset();
  bytes_ = 0;
  frame_ = TelemetryFrame{};
}

bool TelemetryChunk::selects(std::string_view tag, std::string_view channel) const {
  if (selection_.empty()) return true;
  return std::any_of(selection_.begin(), selection_.end(), [&](const ChannelKey& key) {
    return key.tag == tag && key.channel == channel;
  });
}

// ------------------------------------------------------- InMemoryChunkSource

InMemoryChunkSource::InMemoryChunkSource(DatasetFrame frame, double chunk_seconds)
    : ChunkedTelemetrySource(std::move(frame.header)),
      frame_(std::move(frame.frame)),
      chunk_seconds_(chunk_seconds) {
  if (chunk_seconds_ > 0.0 && chunk_seconds_ < header_.duration_s) {
    // ceil with a tolerance so duration == k * chunk_seconds gives exactly k.
    // The count is checked as a double, before the cast can overflow.
    const double count = std::ceil(header_.duration_s / chunk_seconds_ - 1e-9);
    if (!(count <= kMaxChunks)) {
      throw TelemetryError("chunk_seconds " + format_double(chunk_seconds_) + " cuts the " +
                           format_double(header_.duration_s) + " s span into more than " +
                           format_double(kMaxChunks) + " windows");
    }
    chunk_count_ = std::max<std::size_t>(static_cast<std::size_t>(count), 1);
  }
  cursors_.assign(frame_.channels().size(), 0);
}

bool InMemoryChunkSource::next(TelemetryChunk& out) {
  if (next_index_ >= chunk_count_) return false;
  const std::size_t k = next_index_++;
  const double t0 = header_.start_time_s;
  const bool last = (k + 1 == chunk_count_);
  const double chunk_start = (chunk_count_ == 1) ? t0 : t0 + static_cast<double>(k) * chunk_seconds_;
  const double chunk_end =
      last ? header_.end_time_s() : t0 + static_cast<double>(k + 1) * chunk_seconds_;

  if (chunk_count_ == 1) {
    // Whole-span chunk: hand the frame over without copying any column.
    out = TelemetryChunk(k, chunk_start, chunk_end, std::move(frame_), gauge_);
    return true;
  }

  TelemetryFrame window;
  const auto& channels = frame_.channels();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const TelemetryChannel& ch = channels[i];
    if (!out.selects(ch.tag, ch.channel)) continue;
    std::size_t begin = cursors_[i];
    // A channel an earlier selection skipped first catches up past the
    // windows it missed; one read every window is already there.
    while (k > 0 && begin < ch.times.size() && ch.times[begin] < chunk_start) ++begin;
    std::size_t end = begin;
    // The last window absorbs every remaining sample (including any past the
    // nominal dataset end), mirroring how the first absorbs pre-start ones.
    while (end < ch.times.size() && (last || ch.times[end] < chunk_end)) ++end;
    cursors_[i] = end;
    if (end == begin) continue;
    window.adopt_channel(ch.tag, ch.channel,
                         std::vector<double>(ch.times.begin() + static_cast<std::ptrdiff_t>(begin),
                                             ch.times.begin() + static_cast<std::ptrdiff_t>(end)),
                         std::vector<double>(ch.values.begin() + static_cast<std::ptrdiff_t>(begin),
                                             ch.values.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  out = TelemetryChunk(k, chunk_start, chunk_end, std::move(window), gauge_);
  return true;
}

// ---------------------------------------------------------- BinChunkSource

BinChunkSource::BinChunkSource(const std::string& directory, Options options)
    : BinChunkSource(directory, options, read_bin_manifest(directory)) {}

BinChunkSource::BinChunkSource(const std::string& directory, Options options,
                               DatasetManifest manifest)
    : ChunkedTelemetrySource(std::move(manifest.header)),
      path_(directory + "/channels.bin"),
      options_(options),
      index_(std::move(manifest.chunks)) {
  binfmt::require_little_endian();
  std::error_code size_ec;
  file_size_ = std::filesystem::file_size(path_, size_ec);
  if (size_ec) file_size_ = 0;
  file_.open(path_, std::ios::binary);
  require(file_.good(), "cannot open channels.bin for reading: " + path_);
  binfmt::note_binary_file_read();
  const int version = binfmt::read_magic(file_, path_);
  if (version == 1) {
    // Legacy single-block file: the whole payload after the magic is one
    // chunk covering the full span (any manifest chunk index is ignored).
    index_.assign(1, ChunkIndexEntry{header_.start_time_s, header_.end_time_s(),
                                     sizeof binfmt::kMagicV1,
                                     file_size_ > sizeof binfmt::kMagicV1
                                         ? file_size_ - sizeof binfmt::kMagicV1
                                         : 0});
  } else if (index_.empty()) {
    throw TelemetryError("exadigit-bin v2 manifest has no chunk index: " + directory);
  }
}

bool BinChunkSource::next(TelemetryChunk& out) {
  if (next_chunk_ >= index_.size()) return false;
  const ChunkIndexEntry& entry = index_[next_chunk_];
  if (options_.max_resident_mb > 0.0 && gauge_->current_bytes() > 0) {
    const auto budget = static_cast<std::size_t>(options_.max_resident_mb * kMiB);
    // entry.bytes is the encoded block size, a close upper bound on the
    // decoded payload. A lone chunk is always admitted (current == 0), so
    // the budget enforces release-before-next rather than deadlocking.
    if (gauge_->current_bytes() + entry.bytes > budget) {
      throw TelemetryError(
          "chunk residency budget exceeded: " + std::to_string(gauge_->current_bytes()) +
          " bytes resident + " + std::to_string(entry.bytes) + " byte chunk > max_resident_mb " +
          std::to_string(options_.max_resident_mb) + " — release chunks before pulling more");
    }
  }
  TelemetryFrame frame;
  decode(entry, out, frame);
  out = TelemetryChunk(next_chunk_, entry.start_time_s, entry.end_time_s, std::move(frame),
                       gauge_);
  ++next_chunk_;
  return true;
}

void BinChunkSource::decode(const ChunkIndexEntry& entry, const TelemetryChunk& selection,
                            TelemetryFrame& frame) {
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(entry.offset));
  require(file_.good(), "cannot seek in channels.bin: " + path_);
  read_chunk_block(file_, entry, file_size_, path_, selection, frame);
}

DatasetFrame BinChunkSource::load(const std::string& directory) {
  BinChunkSource source(directory);
  const TelemetryChunk every_channel;
  TelemetryFrame frame;
  for (const ChunkIndexEntry& entry : source.index_) source.decode(entry, every_channel, frame);
  return DatasetFrame{std::move(source.header_), std::move(frame)};
}

// --------------------------------------------------------- LiveAppendSource

LiveAppendSource::LiveAppendSource(DatasetHeader header, std::size_t capacity)
    : ChunkedTelemetrySource(std::move(header)), capacity_(std::max<std::size_t>(capacity, 1)) {}

void LiveAppendSource::push_locked(std::unique_lock<std::mutex>& lock, double start_time_s,
                                   double end_time_s, TelemetryFrame frame) {
  (void)lock;
  require(end_time_s >= start_time_s, "live chunk window must not be time-inverted");
  ring_.emplace_back(next_index_++, start_time_s, end_time_s, std::move(frame), gauge_);
  not_empty_.notify_one();
}

void LiveAppendSource::push(double start_time_s, double end_time_s, TelemetryFrame frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock, [this] { return ring_.size() < capacity_ || closed_; });
  if (closed_) throw TelemetryError("push on a closed LiveAppendSource");
  push_locked(lock, start_time_s, end_time_s, std::move(frame));
}

bool LiveAppendSource::try_push(double start_time_s, double end_time_s, TelemetryFrame frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw TelemetryError("push on a closed LiveAppendSource");
  if (ring_.size() >= capacity_) return false;
  push_locked(lock, start_time_s, end_time_s, std::move(frame));
  return true;
}

void LiveAppendSource::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool LiveAppendSource::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

bool LiveAppendSource::next(TelemetryChunk& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [this] { return !ring_.empty() || closed_; });
  if (ring_.empty()) return false;  // closed and drained: end-of-stream
  out = std::move(ring_.front());
  ring_.pop_front();
  not_full_.notify_one();
  return true;
}

// --------------------------------------------------------- ChunkedBinWriter

ChunkedBinWriter::ChunkedBinWriter(std::string directory, DatasetHeader header)
    : directory_(std::move(directory)), manifest_{kExadigitBinFormat, std::move(header), {}} {
  manifest_.header.validate();
  binfmt::require_little_endian();
  std::filesystem::create_directories(directory_);
  const std::string path = directory_ + "/channels.bin";
  file_.open(path, std::ios::binary);
  require(file_.good(), "cannot open channels.bin for writing: " + path);
  file_.write(binfmt::kMagicV2, sizeof binfmt::kMagicV2);
  offset_ = sizeof binfmt::kMagicV2;
}

void ChunkedBinWriter::append(double start_time_s, double end_time_s,
                              const TelemetryFrame& frame) {
  require(!finished_, "append on a finished ChunkedBinWriter");
  require(end_time_s >= start_time_s, "chunk window must not be time-inverted");
  ChunkIndexEntry entry;
  entry.start_time_s = start_time_s;
  entry.end_time_s = end_time_s;
  entry.offset = offset_;
  write_chunk_block(file_, frame);
  require(file_.good(), "failed writing channels.bin in " + directory_);
  offset_ = static_cast<std::uint64_t>(file_.tellp());
  entry.bytes = offset_ - entry.offset;
  manifest_.chunks.push_back(entry);
}

void ChunkedBinWriter::finish() {
  require(!finished_, "finish on a finished ChunkedBinWriter");
  file_.close();
  require(!file_.fail(), "failed closing channels.bin in " + directory_);

  // Manifest last: the chunk index needs the real channels.bin offsets.
  write_manifest(directory_, manifest_);
  finished_ = true;
}

// ------------------------------------------------------------- free helpers

DatasetFrame dataset_to_frame(const TelemetryDataset& dataset) {
  return DatasetFrame{DatasetHeader::copy_from(dataset), TelemetryFrame::from_dataset(dataset)};
}

void save_dataset_binary_chunked(const TelemetryDataset& dataset, const std::string& directory,
                                 double chunk_seconds) {
  dataset.validate();
  InMemoryChunkSource slicer(dataset_to_frame(dataset), chunk_seconds);

  ChunkedBinWriter writer(directory, slicer.header());
  TelemetryChunk chunk;  // no selection: every channel is written
  while (slicer.next(chunk)) {
    writer.append(chunk.start_time_s(), chunk.end_time_s(), chunk.frame());
    chunk.release();
  }
  writer.finish();
}

std::size_t dataset_payload_bytes(const TelemetryDataset& dataset) {
  std::size_t samples = 0;
  for_each_channel(dataset, [&samples](const std::string&, const char*, const TimeSeries& s) {
    samples += s.size();
  });
  return samples * 2 * sizeof(double);
}

}  // namespace exadigit
