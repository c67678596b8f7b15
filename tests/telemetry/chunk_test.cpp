/// Unit tests for the chunked telemetry layer (telemetry/chunk.hpp): gauge
/// accounting, in-memory slicing semantics, the exadigit-bin v2 chunked
/// round trip, v1 compatibility, the resident-bytes budget, and the
/// thread-safe live-append ring.

#include "telemetry/chunk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "json/json.hpp"
#include "telemetry/store.hpp"

namespace exadigit {
namespace {

namespace fs = std::filesystem;

TelemetryDataset small_dataset(double duration_s = 120.0) {
  TelemetryDataset d;
  d.system_name = "chunk-test";
  d.duration_s = duration_s;
  d.trace_quantum_s = 15.0;
  const auto n = static_cast<std::size_t>(duration_s / 15.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 15.0;
    d.measured_system_power_w.push_back(t, 1.8e7 + 1e5 * std::sin(0.01 * t));
  }
  for (std::size_t i = 0; i * 60.0 < duration_s; ++i) {
    d.wetbulb_c.push_back(static_cast<double>(i) * 60.0, 16.0 + 0.1 * static_cast<double>(i));
  }
  d.cdus.resize(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 15.0;
    d.cdus[0].rack_power_w.push_back(t, 4e5 + static_cast<double>(i));
    d.cdus[1].supply_temp_c.push_back(t, 32.0 + 0.01 * static_cast<double>(i));
  }
  JobRecord j;
  j.name = "fill";
  j.node_count = 64;
  j.wall_time_s = 60.0;
  j.mean_cpu_util = 0.5;
  d.jobs.push_back(j);
  return d;
}

/// Sum of the samples across a pulled chunk's channels.
std::size_t chunk_samples(const TelemetryChunk& chunk) {
  return chunk.frame().sample_count();
}

class ChunkFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("exadigit_chunk_test_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

// --- ResidencyGauge / TelemetryChunk ---------------------------------------

TEST(ResidencyGaugeTest, TracksCurrentAndPeak) {
  ResidencyGauge gauge;
  gauge.add(100);
  gauge.add(50);
  EXPECT_EQ(gauge.current_bytes(), 150u);
  EXPECT_EQ(gauge.peak_bytes(), 150u);
  gauge.sub(100);
  EXPECT_EQ(gauge.current_bytes(), 50u);
  EXPECT_EQ(gauge.peak_bytes(), 150u);  // peak is a high-water mark
  gauge.add(30);
  EXPECT_EQ(gauge.peak_bytes(), 150u);
}

TEST(TelemetryChunkTest, RegistersAndReleasesPayload) {
  auto gauge = std::make_shared<ResidencyGauge>();
  TelemetryFrame frame;
  frame.adopt_channel("system", "x", {0.0, 1.0, 2.0}, {1.0, 2.0, 3.0});
  const std::size_t bytes = frame.payload_bytes();
  {
    TelemetryChunk chunk(0, 0.0, 3.0, std::move(frame), gauge);
    EXPECT_EQ(chunk.payload_bytes(), bytes);
    EXPECT_EQ(gauge->current_bytes(), bytes);

    TelemetryChunk moved = std::move(chunk);
    EXPECT_EQ(gauge->current_bytes(), bytes);  // move transfers, not doubles
    EXPECT_EQ(moved.payload_bytes(), bytes);

    moved.release();
    EXPECT_EQ(gauge->current_bytes(), 0u);
    moved.release();  // idempotent
    EXPECT_EQ(gauge->current_bytes(), 0u);
  }
  EXPECT_EQ(gauge->peak_bytes(), bytes);
}

TEST(TelemetryChunkTest, DestructionDeregisters) {
  auto gauge = std::make_shared<ResidencyGauge>();
  {
    TelemetryFrame frame;
    frame.adopt_channel("system", "x", {0.0}, {1.0});
    TelemetryChunk chunk(0, 0.0, 1.0, std::move(frame), gauge);
    EXPECT_GT(gauge->current_bytes(), 0u);
  }
  EXPECT_EQ(gauge->current_bytes(), 0u);
}

// --- InMemoryChunkSource ---------------------------------------------------

TEST(InMemoryChunkSourceTest, WholeFrameAsSingleChunk) {
  const TelemetryDataset d = small_dataset();
  const std::size_t total = TelemetryFrame::from_dataset(d).sample_count();
  InMemoryChunkSource source(dataset_to_frame(d), 0.0);
  EXPECT_EQ(source.chunk_count(), 1u);
  EXPECT_EQ(source.header().system_name, "chunk-test");
  EXPECT_EQ(source.header().jobs.size(), 1u);

  TelemetryChunk chunk;
  ASSERT_TRUE(source.next(chunk));
  EXPECT_EQ(chunk.start_time_s(), 0.0);
  EXPECT_EQ(chunk.end_time_s(), d.duration_s);
  EXPECT_EQ(chunk_samples(chunk), total);
  EXPECT_EQ(source.gauge()->current_bytes(), chunk.payload_bytes());
  chunk.release();
  EXPECT_FALSE(source.next(chunk));
}

TEST(InMemoryChunkSourceTest, SlicingPreservesEverySampleInOrder) {
  const TelemetryDataset d = small_dataset(120.0);
  const TelemetryFrame reference = TelemetryFrame::from_dataset(d);
  // 50 s windows over 120 s: 3 chunks, the last absorbing the 100..120 tail.
  InMemoryChunkSource source(dataset_to_frame(d), 50.0);
  EXPECT_EQ(source.chunk_count(), 3u);

  TelemetryFrame reassembled;
  TelemetryChunk chunk;
  std::size_t chunks_seen = 0;
  while (source.next(chunk)) {
    ++chunks_seen;
    for (const TelemetryChannel& ch : chunk.frame().channels()) {
      for (double t : ch.times) {
        if (chunk.index() + 1 < source.chunk_count()) {
          EXPECT_LT(t, chunk.end_time_s()) << ch.channel;
        }
      }
      reassembled.append_channel(ch.tag, ch.channel, ch.times, ch.values);
    }
    chunk.release();
  }
  EXPECT_EQ(chunks_seen, 3u);
  ASSERT_EQ(reassembled.sample_count(), reference.sample_count());
  for (const TelemetryChannel& ref : reference.channels()) {
    const TelemetryChannel* got = reassembled.find(ref.tag, ref.channel);
    ASSERT_NE(got, nullptr) << ref.tag << "/" << ref.channel;
    ASSERT_EQ(got->times, ref.times) << ref.tag << "/" << ref.channel;
    ASSERT_EQ(got->values, ref.values) << ref.tag << "/" << ref.channel;
  }
}

TEST(InMemoryChunkSourceTest, ExactMultipleGivesExactChunkCount) {
  InMemoryChunkSource source(dataset_to_frame(small_dataset(120.0)), 30.0);
  EXPECT_EQ(source.chunk_count(), 4u);  // no phantom 5th window
}

TEST(InMemoryChunkSourceTest, OversizedWindowIsOneChunk) {
  InMemoryChunkSource source(dataset_to_frame(small_dataset(120.0)), 1e6);
  EXPECT_EQ(source.chunk_count(), 1u);
}

// --- chunked bin round trip ------------------------------------------------

TEST_F(ChunkFileTest, ChunkedSaveRoundTripsThroughWholeFileLoader) {
  const TelemetryDataset d = small_dataset();
  save_dataset_binary_chunked(d, dir_, 40.0);
  // The regular loader reads a v2 file end-to-end (chunk blocks appended).
  const TelemetryDataset loaded = load_dataset(dir_);
  EXPECT_EQ(loaded.system_name, d.system_name);
  ASSERT_EQ(loaded.jobs.size(), d.jobs.size());
  ASSERT_EQ(loaded.measured_system_power_w.size(), d.measured_system_power_w.size());
  for (std::size_t i = 0; i < d.measured_system_power_w.size(); ++i) {
    EXPECT_EQ(loaded.measured_system_power_w.time(i), d.measured_system_power_w.time(i));
    EXPECT_EQ(loaded.measured_system_power_w.value(i), d.measured_system_power_w.value(i));
  }
  ASSERT_EQ(loaded.cdus.size(), d.cdus.size());
  EXPECT_EQ(loaded.cdus[0].rack_power_w.size(), d.cdus[0].rack_power_w.size());
}

TEST_F(ChunkFileTest, BinChunkSourceStreamsIndexedChunks) {
  const TelemetryDataset d = small_dataset(120.0);
  save_dataset_binary_chunked(d, dir_, 40.0);

  BinChunkSource source(dir_);
  EXPECT_EQ(source.chunk_index().size(), 3u);
  EXPECT_EQ(source.header().system_name, d.system_name);
  EXPECT_EQ(source.header().jobs.size(), d.jobs.size());
  // Index entries tile the span with increasing offsets.
  std::uint64_t prev_end_offset = 0;
  double prev_end_time = source.header().start_time_s;
  for (const ChunkIndexEntry& e : source.chunk_index()) {
    EXPECT_EQ(e.start_time_s, prev_end_time);
    EXPECT_GT(e.bytes, 0u);
    EXPECT_GE(e.offset, prev_end_offset);
    prev_end_offset = e.offset + e.bytes;
    prev_end_time = e.end_time_s;
  }
  EXPECT_EQ(prev_end_time, source.header().end_time_s());

  TelemetryFrame reassembled;
  TelemetryChunk chunk;
  std::size_t count = 0;
  while (source.next(chunk)) {
    ++count;
    for (const TelemetryChannel& ch : chunk.frame().channels()) {
      reassembled.append_channel(ch.tag, ch.channel, ch.times, ch.values);
    }
    chunk.release();
  }
  EXPECT_EQ(count, 3u);
  const TelemetryFrame reference = TelemetryFrame::from_dataset(d);
  ASSERT_EQ(reassembled.sample_count(), reference.sample_count());
  for (const TelemetryChannel& ref : reference.channels()) {
    const TelemetryChannel* got = reassembled.find(ref.tag, ref.channel);
    ASSERT_NE(got, nullptr) << ref.tag << "/" << ref.channel;
    EXPECT_EQ(got->times, ref.times);
    EXPECT_EQ(got->values, ref.values);
  }
}

TEST_F(ChunkFileTest, LegacyV1FileReadsAsOneChunk) {
  const TelemetryDataset d = small_dataset();
  save_dataset_binary(d, dir_);  // v1 writer

  BinChunkSource source(dir_);
  ASSERT_EQ(source.chunk_index().size(), 1u);
  TelemetryChunk chunk;
  ASSERT_TRUE(source.next(chunk));
  EXPECT_EQ(chunk_samples(chunk), TelemetryFrame::from_dataset(d).sample_count());
  chunk.release();
  EXPECT_FALSE(source.next(chunk));
}

TEST_F(ChunkFileTest, ResidencyBudgetForcesReleaseBeforeNext) {
  const TelemetryDataset d = small_dataset(240.0);
  save_dataset_binary_chunked(d, dir_, 60.0);

  BinChunkSource::Options options;
  options.max_resident_mb = 1e-4;  // ~105 bytes: any second chunk busts it
  BinChunkSource source(dir_, options);
  ASSERT_GE(source.chunk_index().size(), 2u);

  TelemetryChunk held;
  ASSERT_TRUE(source.next(held));  // a lone chunk is always admitted
  TelemetryChunk second;
  EXPECT_THROW((void)source.next(second), TelemetryError);
  held.release();
  EXPECT_TRUE(source.next(second));  // after release the stream continues
  second.release();
}

TEST_F(ChunkFileTest, BudgetedStreamCoversWholeDatasetWhenReleasing) {
  const TelemetryDataset d = small_dataset(240.0);
  save_dataset_binary_chunked(d, dir_, 60.0);
  BinChunkSource::Options options;
  options.max_resident_mb = 1e-4;
  BinChunkSource source(dir_, options);
  std::size_t samples = 0;
  TelemetryChunk chunk;
  while (source.next(chunk)) {
    samples += chunk_samples(chunk);
    chunk.release();
  }
  EXPECT_EQ(samples, TelemetryFrame::from_dataset(d).sample_count());
  EXPECT_GT(source.gauge()->peak_bytes(), 0u);
  EXPECT_LE(source.gauge()->peak_bytes(),
            static_cast<std::size_t>(options.max_resident_mb * 1024.0 * 1024.0) +
                source.chunk_index().front().bytes);
}

TEST_F(ChunkFileTest, V2ManifestWithoutChunkIndexThrows) {
  const TelemetryDataset d = small_dataset();
  save_dataset_binary_chunked(d, dir_, 40.0);
  Json manifest = Json::load_file(dir_ + "/manifest.json");
  manifest.as_object().erase("chunks");
  manifest.save_file(dir_ + "/manifest.json");
  EXPECT_THROW(BinChunkSource{dir_}, TelemetryError);
}

// --- manifest validation ---------------------------------------------------

/// Saves small_dataset() in three 40 s chunks under `dir`, applies `edit` to
/// its manifest, and returns what opening it as a BinChunkSource throws
/// (empty when nothing is thrown).
template <typename Edit>
std::string open_error_after(const std::string& dir, Edit edit) {
  save_dataset_binary_chunked(small_dataset(), dir, 40.0);
  Json manifest = Json::load_file(dir + "/manifest.json");
  edit(manifest);
  manifest.save_file(dir + "/manifest.json");
  try {
    BinChunkSource source(dir);
  } catch (const TelemetryError& e) {
    return e.what();
  }
  return "";
}

Json& chunk_entry(Json& manifest, std::size_t i) { return manifest["chunks"].as_array()[i]; }

TEST_F(ChunkFileTest, ManifestChunkOffsetMustBeANonNegativeInteger) {
  const std::string error =
      open_error_after(dir_, [](Json& m) { chunk_entry(m, 1)["offset"] = Json(-1.0); });
  EXPECT_NE(error.find("chunks[1].offset"), std::string::npos) << error;
  const std::string fractional =
      open_error_after(dir_, [](Json& m) { chunk_entry(m, 1)["offset"] = Json(100.5); });
  EXPECT_NE(fractional.find("chunks[1].offset"), std::string::npos) << fractional;
}

TEST_F(ChunkFileTest, ManifestChunkBytesMustBeANonNegativeInteger) {
  const std::string error =
      open_error_after(dir_, [](Json& m) { chunk_entry(m, 0)["bytes"] = Json(-1.0); });
  EXPECT_NE(error.find("chunks[0].bytes"), std::string::npos) << error;
}

TEST_F(ChunkFileTest, ManifestChunkOffsetMustSkipTheMagic) {
  const std::string error =
      open_error_after(dir_, [](Json& m) { chunk_entry(m, 0)["offset"] = Json(0.0); });
  EXPECT_NE(error.find("chunks[0].offset"), std::string::npos) << error;
}

TEST_F(ChunkFileTest, ManifestChunkMustLieInsideChannelsBin) {
  const std::string far =
      open_error_after(dir_, [](Json& m) { chunk_entry(m, 2)["offset"] = Json(1e300); });
  EXPECT_NE(far.find("chunks[2].offset"), std::string::npos) << far;
  // Each field in range, but together one byte past the end of the file.
  const std::string overrun = open_error_after(dir_, [](Json& m) {
    Json& last = chunk_entry(m, 2);
    last["bytes"] = Json(last.at("bytes").as_number() + 1.0);
  });
  EXPECT_NE(overrun.find("chunks[2].offset + bytes"), std::string::npos) << overrun;
}

TEST_F(ChunkFileTest, ManifestChunkMustNotEndBeforeItStarts) {
  const std::string error = open_error_after(dir_, [](Json& m) {
    Json& entry = chunk_entry(m, 1);
    entry["end_time_s"] = Json(entry.at("start_time_s").as_number() - 1.0);
  });
  EXPECT_NE(error.find("chunks[1].start_time_s"), std::string::npos) << error;
}

TEST_F(ChunkFileTest, ManifestChunkStartsMustNotDecrease) {
  const std::string error = open_error_after(dir_, [](Json& m) {
    const double previous_start = chunk_entry(m, 1).at("start_time_s").as_number();
    chunk_entry(m, 2)["start_time_s"] = Json(previous_start - 1.0);
  });
  EXPECT_NE(error.find("chunks[2].start_time_s"), std::string::npos) << error;
}

// The index must tile channels.bin: an index that skips, overlaps or stops
// short of a block would hand a reader other samples than the file holds.
TEST_F(ChunkFileTest, ManifestChunkIndexMustCoverTheLastBlock) {
  const std::string error = open_error_after(dir_, [](Json& m) {
    m["chunks"].as_array().pop_back();
  });
  EXPECT_NE(error.find("chunks[1]"), std::string::npos) << error;
  EXPECT_THROW((void)load_dataset(dir_), TelemetryError);
}

TEST_F(ChunkFileTest, ManifestChunksMustNotLeaveAGap) {
  const std::string error = open_error_after(dir_, [](Json& m) {
    Json& entry = chunk_entry(m, 1);
    entry["offset"] = Json(entry.at("offset").as_number() + 8.0);
    entry["bytes"] = Json(entry.at("bytes").as_number() - 8.0);
  });
  EXPECT_NE(error.find("chunks[1].offset"), std::string::npos) << error;
}

TEST_F(ChunkFileTest, ManifestChunksMustNotOverlap) {
  const std::string error = open_error_after(dir_, [](Json& m) {
    Json& entry = chunk_entry(m, 2);
    entry["offset"] = Json(entry.at("offset").as_number() - 8.0);
    entry["bytes"] = Json(entry.at("bytes").as_number() + 8.0);
  });
  EXPECT_NE(error.find("chunks[2].offset"), std::string::npos) << error;
}

TEST_F(ChunkFileTest, ManifestChunkIndexMustEndAtTheFileEnd) {
  const std::string error = open_error_after(dir_, [this](Json&) {
    std::ofstream f(dir_ + "/channels.bin", std::ios::binary | std::ios::app);
    const std::uint64_t trailing = 0;
    f.write(reinterpret_cast<const char*>(&trailing), sizeof trailing);
  });
  EXPECT_NE(error.find("chunks[2]"), std::string::npos) << error;
  EXPECT_THROW((void)load_dataset(dir_), TelemetryError);
}

TEST_F(ChunkFileTest, ManifestCduCountIsBounded) {
  const std::string above = open_error_after(dir_, [](Json& m) {
    m["cdu_count"] = Json(kMaxDatasetCdus + 1);
  });
  EXPECT_NE(above.find("cdu_count"), std::string::npos) << above;
  // The whole-dataset loader reads the same manifest: it must refuse before
  // sizing the per-CDU slots.
  EXPECT_THROW((void)load_dataset(dir_), TelemetryError);
  const std::string negative =
      open_error_after(dir_, [](Json& m) { m["cdu_count"] = Json(-1); });
  EXPECT_NE(negative.find("cdu_count"), std::string::npos) << negative;
  EXPECT_THROW((void)load_dataset(dir_), TelemetryError);
}

TEST_F(ChunkFileTest, FormatCheckReadsOnlyTheManifest) {
  save_dataset_binary_chunked(small_dataset(), dir_, 40.0);
  fs::remove(dir_ + "/jobs.json");
  EXPECT_EQ(read_manifest(dir_).format, kExadigitBinFormat);
  EXPECT_TRUE(read_manifest(dir_).header.jobs.empty());
  EXPECT_THROW(BinChunkSource{dir_}, ConfigError);  // a source needs the jobs
}

TEST(DatasetPayloadBytesTest, MatchesFrameAccounting) {
  const TelemetryDataset d = small_dataset();
  EXPECT_EQ(dataset_payload_bytes(d), TelemetryFrame::from_dataset(d).payload_bytes());
}

TEST(DatasetHeaderTest, ValidateRejectsBadHeaders) {
  DatasetHeader header;
  header.duration_s = 0.0;
  EXPECT_THROW(header.validate(), TelemetryError);
  header.duration_s = 10.0;
  header.trace_quantum_s = 0.0;
  EXPECT_THROW(header.validate(), TelemetryError);
  header.trace_quantum_s = 15.0;
  JobRecord bad;
  bad.name = "bad";
  bad.node_count = 0;
  bad.wall_time_s = 1.0;
  header.jobs.push_back(bad);
  EXPECT_THROW(header.validate(), TelemetryError);
  header.jobs[0].node_count = 1;
  header.jobs[0].cpu_util_trace = {1.5};
  EXPECT_THROW(header.validate(), TelemetryError);
  header.jobs[0].cpu_util_trace = {0.5};
  EXPECT_NO_THROW(header.validate());
}

// --- channel selection -----------------------------------------------------

/// Forwards next() to another source, as a timing or logging wrapper does.
class ForwardingSource final : public ChunkedTelemetrySource {
 public:
  explicit ForwardingSource(ChunkedTelemetrySource& inner)
      : ChunkedTelemetrySource(inner.header()), inner_(inner) {}
  [[nodiscard]] bool next(TelemetryChunk& out) override { return inner_.next(out); }

 private:
  ChunkedTelemetrySource& inner_;
};

/// The channels of each window in a stream, copied.
using Windows = std::vector<std::vector<TelemetryChannel>>;

/// Every window `source` yields into `chunk`.
Windows pull_all(ChunkedTelemetrySource& source, TelemetryChunk& chunk) {
  Windows windows;
  while (source.next(chunk)) {
    windows.push_back(chunk.frame().channels());
    chunk.release();
  }
  return windows;
}

/// `windows` with only the channels `keys` name, in their original order.
Windows only(const Windows& windows, const std::vector<ChannelKey>& keys) {
  Windows out;
  for (const auto& window : windows) {
    out.emplace_back();
    for (const TelemetryChannel& ch : window) {
      for (const ChannelKey& key : keys) {
        if (key.tag == ch.tag && key.channel == ch.channel) out.back().push_back(ch);
      }
    }
  }
  return out;
}

void expect_same_windows(const Windows& got, const Windows& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].size(), want[k].size()) << "window " << k;
    for (std::size_t c = 0; c < got[k].size(); ++c) {
      EXPECT_EQ(got[k][c].tag, want[k][c].tag) << "window " << k;
      EXPECT_EQ(got[k][c].channel, want[k][c].channel) << "window " << k;
      EXPECT_EQ(got[k][c].times, want[k][c].times) << "window " << k;
      EXPECT_EQ(got[k][c].values, want[k][c].values) << "window " << k;
    }
  }
}

/// Two channels with an unselected block between and after them.
const std::vector<ChannelKey> kPicked = {{"system", "wetbulb_c"}, {"cdu1", "supply_temp_c"}};

TEST_F(ChunkFileTest, BinSelectionDecodesOnlySelectedChannelsWithFullDecodeBits) {
  save_dataset_binary_chunked(small_dataset(240.0), dir_, 60.0);
  BinChunkSource full_source(dir_);
  TelemetryChunk every;
  const auto full = pull_all(full_source, every);
  ASSERT_EQ(full.size(), 4u);

  BinChunkSource source(dir_);
  TelemetryChunk chunk;
  chunk.select(kPicked);
  const std::uint64_t samples_before = dataset_io_stats().binary_samples;
  const auto picked = pull_all(source, chunk);
  expect_same_windows(picked, only(full, kPicked));

  // Residency and read accounting see the decoded channels only.
  std::size_t picked_samples = 0;
  for (const auto& window : picked) {
    for (const TelemetryChannel& ch : window) picked_samples += ch.size();
  }
  EXPECT_EQ(dataset_io_stats().binary_samples - samples_before, picked_samples);
  EXPECT_LT(source.gauge()->peak_bytes(), full_source.gauge()->peak_bytes());
  std::size_t largest = 0;
  for (const auto& window : picked) {
    std::size_t samples = 0;
    for (const TelemetryChannel& ch : window) samples += ch.size();
    largest = std::max(largest, samples);
  }
  EXPECT_EQ(source.gauge()->peak_bytes(), largest * 2 * sizeof(double));
}

TEST_F(ChunkFileTest, SkippedBlockRunningPastItsChunkThrows) {
  save_dataset_binary_chunked(small_dataset(120.0), dir_, 40.0);
  const ChunkIndexEntry entry = read_manifest(dir_).chunks.front();
  {
    // Walk chunk 0 to its first unselected block and stretch its sample
    // count one sample past the chunk's end (still below the file-size
    // plausibility bound, so only the skip's own check can catch it).
    std::fstream f(dir_ + "/channels.bin", std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(entry.offset + sizeof(std::uint64_t)));
    for (;;) {
      std::string names[2];
      for (std::string& name : names) {
        std::uint32_t len = 0;
        f.read(reinterpret_cast<char*>(&len), sizeof len);
        name.resize(len);
        f.read(name.data(), len);
      }
      const auto count_at = static_cast<std::uint64_t>(f.tellg());
      std::uint64_t count = 0;
      f.read(reinterpret_cast<char*>(&count), sizeof count);
      ASSERT_TRUE(f.good());
      if (names[0] != "system") {
        const std::uint64_t samples_at = count_at + sizeof count;
        const std::uint64_t stretched =
            (entry.offset + entry.bytes - samples_at) / (2 * sizeof(double)) + 1;
        f.seekp(static_cast<std::streamoff>(count_at));
        f.write(reinterpret_cast<const char*>(&stretched), sizeof stretched);
        break;
      }
      f.seekg(static_cast<std::streamoff>(count * 2 * sizeof(double)), std::ios::cur);
    }
    ASSERT_TRUE(f.good());
  }
  // Skipped or decoded, the block may not run into the next chunk.
  for (const bool decoded : {false, true}) {
    BinChunkSource source(dir_);
    TelemetryChunk chunk;
    if (!decoded) chunk.select({{"system", "measured_power_w"}, {"system", "wetbulb_c"}});
    try {
      (void)source.next(chunk);
      FAIL() << "a block running past its chunk must throw (decoded: " << decoded << ")";
    } catch (const TelemetryError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated channels.bin samples"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)load_dataset(dir_), TelemetryError);
}

TEST_F(ChunkFileTest, SelectionSurvivesReleaseAndAForwardingDecorator) {
  const TelemetryDataset d = small_dataset(240.0);
  save_dataset_binary_chunked(d, dir_, 60.0);
  const std::vector<ChannelKey> power = {{"system", "measured_power_w"}};
  TelemetryChunk every;
  BinChunkSource full_bin(dir_);
  InMemoryChunkSource full_mem(dataset_to_frame(d), 60.0);
  const auto bin_full = pull_all(full_bin, every);
  const auto mem_full = pull_all(full_mem, every);

  BinChunkSource bin(dir_);
  InMemoryChunkSource mem(dataset_to_frame(d), 60.0);
  for (auto [inner, full] : {std::pair{static_cast<ChunkedTelemetrySource*>(&bin), &bin_full},
                             std::pair{static_cast<ChunkedTelemetrySource*>(&mem), &mem_full}}) {
    ForwardingSource forward(*inner);
    TelemetryChunk chunk;
    chunk.select(power);
    Windows windows;
    while (forward.next(chunk)) {
      windows.push_back(chunk.frame().channels());
      chunk.release();
      EXPECT_FALSE(chunk.selects("system", "wetbulb_c"));  // still selecting power only
    }
    ASSERT_EQ(windows.size(), 4u);
    expect_same_windows(windows, only(*full, power));
  }
}

TEST_F(ChunkFileTest, EmptySelectionGivesEveryChannel) {
  const TelemetryDataset d = small_dataset(240.0);
  save_dataset_binary_chunked(d, dir_, 60.0);
  TelemetryChunk every;
  BinChunkSource full_bin(dir_);
  InMemoryChunkSource full_mem(dataset_to_frame(d), 60.0);
  const auto bin_full = pull_all(full_bin, every);
  const auto mem_full = pull_all(full_mem, every);
  ASSERT_EQ(bin_full.front().size(), 4u);

  TelemetryChunk cleared;
  cleared.select(kPicked);
  cleared.select({});
  EXPECT_TRUE(cleared.selects("cdu0", "rack_power_w"));
  BinChunkSource bin(dir_);
  expect_same_windows(pull_all(bin, cleared), bin_full);
  InMemoryChunkSource mem(dataset_to_frame(d), 60.0);
  expect_same_windows(pull_all(mem, cleared), mem_full);
}

TEST(InMemoryChunkSourceTest, SelectionSkipsChannelsAndASkippedChannelCatchesUp) {
  const TelemetryDataset d = small_dataset(120.0);
  InMemoryChunkSource full_source(dataset_to_frame(d), 50.0);
  TelemetryChunk every;
  const auto full = pull_all(full_source, every);
  ASSERT_EQ(full.size(), 3u);

  InMemoryChunkSource source(dataset_to_frame(d), 50.0);
  TelemetryChunk chunk;
  chunk.select(kPicked);
  ASSERT_TRUE(source.next(chunk));
  expect_same_windows({chunk.frame().channels()}, only({full[0]}, kPicked));
  // Widening the selection mid-stream: the channels skipped in window 0
  // start at window 1's first sample, as in the full stream.
  chunk.select({});
  Windows rest;
  while (source.next(chunk)) rest.push_back(chunk.frame().channels());
  expect_same_windows(rest, {full[1], full[2]});
}

TEST(InMemoryChunkSourceTest, WindowCountIsBoundedBeforeTheCast) {
  for (const double chunk_seconds : {1e-300, 1e-4}) {
    try {
      InMemoryChunkSource source(dataset_to_frame(small_dataset(3600.0)), chunk_seconds);
      ADD_FAILURE() << chunk_seconds << " gave " << source.chunk_count() << " windows";
    } catch (const TelemetryError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk_seconds"), std::string::npos) << e.what();
    }
  }
  // The paper's 183-day window at 15 s chunks stays legal.
  DatasetHeader header;
  header.system_name = "table-iv";
  header.duration_s = 183.0 * 86400.0;
  InMemoryChunkSource window(DatasetFrame{header, TelemetryFrame{}}, 15.0);
  EXPECT_EQ(window.chunk_count(), 1054080u);
}

// --- LiveAppendSource ------------------------------------------------------

DatasetHeader live_header() {
  DatasetHeader header;
  header.system_name = "live";
  header.duration_s = 300.0;
  return header;
}

TelemetryFrame one_sample_frame(double t) {
  TelemetryFrame frame;
  frame.adopt_channel("system", "measured_power_w", {t}, {1.8e7});
  return frame;
}

TEST(LiveAppendSourceTest, PushNextCloseDrains) {
  LiveAppendSource source(live_header(), 4);
  source.push(0.0, 60.0, one_sample_frame(0.0));
  source.push(60.0, 120.0, one_sample_frame(60.0));
  source.close();

  TelemetryChunk chunk;
  ASSERT_TRUE(source.next(chunk));
  EXPECT_EQ(chunk.index(), 0u);
  EXPECT_EQ(chunk.start_time_s(), 0.0);
  chunk.release();
  ASSERT_TRUE(source.next(chunk));
  EXPECT_EQ(chunk.index(), 1u);
  chunk.release();
  EXPECT_FALSE(source.next(chunk));  // closed and drained
  EXPECT_FALSE(source.next(chunk));  // stays at end-of-stream
}

TEST(LiveAppendSourceTest, TryPushReportsFullRing) {
  LiveAppendSource source(live_header(), 1);
  EXPECT_TRUE(source.try_push(0.0, 60.0, one_sample_frame(0.0)));
  EXPECT_FALSE(source.try_push(60.0, 120.0, one_sample_frame(60.0)));
  TelemetryChunk chunk;
  ASSERT_TRUE(source.next(chunk));
  chunk.release();
  EXPECT_TRUE(source.try_push(60.0, 120.0, one_sample_frame(60.0)));
}

TEST(LiveAppendSourceTest, PushAfterCloseThrows) {
  LiveAppendSource source(live_header(), 2);
  source.close();
  EXPECT_TRUE(source.closed());
  EXPECT_THROW(source.push(0.0, 60.0, one_sample_frame(0.0)), TelemetryError);
  EXPECT_THROW((void)source.try_push(0.0, 60.0, one_sample_frame(0.0)), TelemetryError);
}

TEST(LiveAppendSourceTest, ProducerConsumerWithBackpressure) {
  constexpr std::size_t kChunks = 64;
  LiveAppendSource source(live_header(), 2);  // tight ring: producer blocks
  std::thread producer([&source] {
    for (std::size_t i = 0; i < kChunks; ++i) {
      const double t = static_cast<double>(i) * 60.0;
      source.push(t, t + 60.0, one_sample_frame(t));
    }
    source.close();
  });

  std::size_t consumed = 0;
  TelemetryChunk chunk;
  while (source.next(chunk)) {
    EXPECT_EQ(chunk.index(), consumed);
    EXPECT_EQ(chunk_samples(chunk), 1u);
    ++consumed;
    chunk.release();
  }
  producer.join();
  EXPECT_EQ(consumed, kChunks);
  EXPECT_EQ(source.gauge()->current_bytes(), 0u);
  // Backpressure bounds residency to the ring capacity plus the in-flight
  // chunk: 3 one-sample frames at most.
  EXPECT_LE(source.gauge()->peak_bytes(), 3 * 2 * sizeof(double));
}

}  // namespace
}  // namespace exadigit
