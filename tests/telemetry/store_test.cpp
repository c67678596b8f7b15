#include "telemetry/store.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/stable_hash.hpp"
#include "json/json.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/frame.hpp"

namespace exadigit {
namespace {

namespace fs = std::filesystem;

TelemetryDataset sample_dataset() {
  TelemetryDataset d;
  d.system_name = "frontier";
  d.start_time_s = 0.0;
  d.duration_s = 120.0;
  d.trace_quantum_s = 15.0;

  JobRecord j;
  j.name = "hpl";
  j.id = 7;
  j.node_count = 9216;
  j.submit_time_s = 5.0;
  j.wall_time_s = 60.0;
  j.mean_cpu_util = 0.33;
  j.mean_gpu_util = 0.79;
  j.fixed_start_time_s = 10.0;
  j.cpu_util_trace = {0.3, 0.33, 0.31};
  d.jobs.push_back(j);

  d.measured_system_power_w = TimeSeries::uniform(0.0, 15.0, {1e7, 1.1e7, 1.2e7});
  d.wetbulb_c = TimeSeries::uniform(0.0, 60.0, {15.0, 15.5});
  d.cdus.resize(2);
  d.cdus[0].rack_power_w = TimeSeries::uniform(0.0, 15.0, {4e5, 4.1e5});
  d.cdus[0].supply_temp_c = TimeSeries::uniform(0.0, 15.0, {32.0, 32.1});
  d.cdus[1].htw_flow_gpm = TimeSeries::uniform(0.0, 15.0, {210.0, 220.0});
  d.facility.pue = TimeSeries::uniform(0.0, 15.0, {1.02, 1.021});
  d.facility.htw_supply_pressure_pa = TimeSeries::uniform(0.0, 30.0, {2e5});
  return d;
}

/// A dense synthetic dataset exercising every Table II channel with values
/// that need full round-trip precision (irrational-ish decimals).
TelemetryDataset synthetic_multi_cdu_dataset(std::size_t cdu_count, std::size_t samples) {
  TelemetryDataset d;
  d.system_name = "synthetic";
  d.duration_s = static_cast<double>(samples) * 15.0;
  d.trace_quantum_s = 15.0;
  std::uint64_t phase = 1;
  auto fill = [&phase, samples](TimeSeries& s) {
    ++phase;
    for (std::size_t i = 0; i < samples; ++i) {
      const double t = static_cast<double>(i) * 15.0;
      s.push_back(t, 1e6 * std::sin(0.001 * static_cast<double>(phase) * (t + 1.0)) +
                         static_cast<double>(phase) / 3.0);
    }
  };
  for (const SystemChannelDef& def : system_channel_defs()) fill(d.*(def.member));
  d.cdus.resize(cdu_count);
  for (auto& cdu : d.cdus) {
    for (const CduChannelDef& def : cdu_channel_defs()) fill(cdu.*(def.member));
  }
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    fill(d.facility.*(def.member));
  }
  JobRecord j;
  j.name = "fill";
  j.node_count = 100;
  j.wall_time_s = 60.0;
  d.jobs.push_back(j);
  return d;
}

/// A fixed dataset built from exact IEEE arithmetic only (no libm), so the
/// files saved from it are the same bytes on every platform. It sets every
/// optional job field on one job and none on the other, and leaves some
/// channels empty, so the writers' skip rules are pinned too.
TelemetryDataset digest_dataset() {
  TelemetryDataset d;
  d.system_name = "digest";
  d.start_time_s = 30.0;
  d.duration_s = 120.0;
  d.trace_quantum_s = 15.0;

  JobRecord full;
  full.name = "hpl";
  full.id = 7;
  full.node_count = 9216;
  full.submit_time_s = 5.0;
  full.wall_time_s = 60.0;
  full.mean_cpu_util = 0.33;
  full.mean_gpu_util = 0.79;
  full.fixed_start_time_s = 40.0;
  full.partition = "batch";
  full.user = "u1";
  full.priority = 2.5;
  full.cpu_util_trace = {0.3, 0.33, 0.31};
  full.gpu_util_trace = {0.7, 0.9};
  JobRecord bare;
  bare.name = "fill";
  bare.id = 8;
  bare.node_count = 100;
  bare.wall_time_s = 90.0;
  d.jobs = {full, bare};

  int phase = 0;
  auto fill = [&d, &phase](TimeSeries& s) {
    ++phase;
    if (phase % 4 == 0) return;  // every fourth channel stays empty
    const double step = (phase % 3 == 0) ? 60.0 : 15.0 * static_cast<double>(phase % 3);
    for (double t = d.start_time_s; t < d.start_time_s + d.duration_s; t += step) {
      s.push_back(t, static_cast<double>(phase) / 3.0 + t / 7.0);
    }
  };
  for (const SystemChannelDef& def : system_channel_defs()) fill(d.*(def.member));
  d.cdus.resize(3);
  for (auto& cdu : d.cdus) {
    for (const CduChannelDef& def : cdu_channel_defs()) fill(cdu.*(def.member));
  }
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    fill(d.facility.*(def.member));
  }
  return d;
}

std::size_t channel_count_of(const TelemetryDataset& d) {
  return system_channel_defs().size() + d.cdus.size() * cdu_channel_defs().size() +
         facility_channel_defs().size();
}

void expect_series_identical(const TimeSeries& a, const TimeSeries& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.time(i), b.time(i)) << what << " time " << i;
    ASSERT_EQ(a.value(i), b.value(i)) << what << " value " << i;
  }
}

/// Bit-exact comparison of every channel (and the header fields).
void expect_datasets_identical(const TelemetryDataset& a, const TelemetryDataset& b) {
  EXPECT_EQ(a.system_name, b.system_name);
  EXPECT_EQ(a.start_time_s, b.start_time_s);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.trace_quantum_s, b.trace_quantum_s);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (const SystemChannelDef& def : system_channel_defs()) {
    expect_series_identical(a.*(def.member), b.*(def.member), def.name);
  }
  ASSERT_EQ(a.cdus.size(), b.cdus.size());
  for (std::size_t i = 0; i < a.cdus.size(); ++i) {
    for (const CduChannelDef& def : cdu_channel_defs()) {
      expect_series_identical(a.cdus[i].*(def.member), b.cdus[i].*(def.member),
                              cdu_tag(i) + "/" + def.name);
    }
  }
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    expect_series_identical(a.facility.*(def.member), b.facility.*(def.member), def.name);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each case as its own (parallel) process.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("exadigit_store_test_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(StoreTest, RoundTripPreservesEverything) {
  const TelemetryDataset d = sample_dataset();
  save_dataset(d, dir_);
  const TelemetryDataset back = load_dataset(dir_);

  EXPECT_EQ(back.system_name, "frontier");
  EXPECT_DOUBLE_EQ(back.duration_s, 120.0);
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.jobs[0].name, "hpl");
  EXPECT_EQ(back.jobs[0].node_count, 9216);
  EXPECT_DOUBLE_EQ(back.jobs[0].fixed_start_time_s, 10.0);
  ASSERT_EQ(back.jobs[0].cpu_util_trace.size(), 3u);
  EXPECT_DOUBLE_EQ(back.jobs[0].cpu_util_trace[1], 0.33);

  ASSERT_EQ(back.measured_system_power_w.size(), 3u);
  EXPECT_NEAR(back.measured_system_power_w.value(2), 1.2e7, 1.0);
  ASSERT_EQ(back.cdus.size(), 2u);
  EXPECT_NEAR(back.cdus[0].rack_power_w.value(1), 4.1e5, 1.0);
  EXPECT_NEAR(back.cdus[1].htw_flow_gpm.value(0), 210.0, 1e-3);
  EXPECT_NEAR(back.facility.pue.value(0), 1.02, 1e-5);
}

TEST_F(StoreTest, ExpectedFilesOnDisk) {
  save_dataset(sample_dataset(), dir_);
  EXPECT_TRUE(fs::exists(dir_ + "/manifest.json"));
  EXPECT_TRUE(fs::exists(dir_ + "/jobs.json"));
  EXPECT_TRUE(fs::exists(dir_ + "/system.csv"));
  EXPECT_TRUE(fs::exists(dir_ + "/cdu.csv"));
  EXPECT_TRUE(fs::exists(dir_ + "/facility.csv"));
}

/// A job's node count refuses what int cannot hold rather than wrapping
/// 2^32 + 1 nodes to a one-node job.
TEST_F(StoreTest, JobNodeCountOutsideIntIsRefused) {
  fs::create_directories(dir_);
  Json::parse(R"([{"name": "big", "node_count": 4294967297, "wall_time_s": 60}])")
      .save_file(dir_ + "/jobs.json");
  try {
    (void)read_jobs(dir_);
    ADD_FAILURE() << "node_count = 4294967297 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("node_count = 4294967297"), std::string::npos)
        << e.what();
  }
}

TEST_F(StoreTest, LoadMissingDirectoryThrows) {
  EXPECT_THROW(load_dataset(dir_ + "/nope"), ConfigError);
}

TEST_F(StoreTest, RegistryResolvesBuiltInFormat) {
  save_dataset(sample_dataset(), dir_);
  auto& registry = TelemetryReaderRegistry::instance();
  ASSERT_NE(registry.find("exadigit-csv"), nullptr);
  const TelemetryDataset d = registry.load("exadigit-csv", dir_);
  EXPECT_EQ(d.system_name, "frontier");
}

TEST_F(StoreTest, UnknownFormatThrows) {
  EXPECT_THROW(TelemetryReaderRegistry::instance().load("pm100", "x"), TelemetryError);
}

/// A bespoke-format adapter, as Section V's pluggable architecture intends.
class Pm100LikeReader final : public TelemetryReader {
 public:
  [[nodiscard]] std::string format() const override { return "pm100-like"; }
  [[nodiscard]] TelemetryDataset load(const std::string&) const override {
    TelemetryDataset d;
    d.system_name = "marconi100";
    d.duration_s = 60.0;
    return d;
  }
};

TEST_F(StoreTest, SinglePassLoaderParsesEachCsvFileExactlyOnce) {
  // Acceptance: a 25-CDU dataset load is one streaming parse per channel
  // file — not one per channel as the reference loader does.
  const TelemetryDataset d = synthetic_multi_cdu_dataset(25, 8);
  save_dataset(d, dir_);
  reset_dataset_io_stats();
  const TelemetryDataset back = load_dataset(dir_);
  const DatasetIoStats stats = dataset_io_stats();
  EXPECT_EQ(stats.csv_file_parses, 3u);  // system.csv, cdu.csv, facility.csv
  EXPECT_EQ(stats.csv_rows, channel_count_of(d) * 8u);
  EXPECT_EQ(stats.binary_file_reads, 0u);
  EXPECT_EQ(back.cdus.size(), 25u);
}

TEST_F(StoreTest, ColumnarLoaderMatchesReferenceLoader) {
  save_dataset(synthetic_multi_cdu_dataset(25, 6), dir_);
  const TelemetryDataset columnar = load_dataset(dir_);
  const TelemetryDataset reference = load_dataset_reference(dir_);
  expect_datasets_identical(columnar, reference);
}

TEST_F(StoreTest, BinaryRoundTripIsValueIdenticalToCsv) {
  const TelemetryDataset d = synthetic_multi_cdu_dataset(25, 6);
  const std::string csv_dir = dir_ + "/csv";
  save_dataset(d, csv_dir);
  const TelemetryDataset from_csv = load_dataset(csv_dir);
  const TelemetryDataset reference = load_dataset_reference(csv_dir);

  // The v1 writer, then v2 as one chunk and as three 30 s chunks. Every
  // layout loads through BinChunkSource's decoder, so each load equals the
  // source and its own stream's chunks concatenated.
  struct Layout {
    const char* name;
    double chunk_seconds;  ///< < 0: the v1 writer
    std::size_t chunks;
  };
  for (const Layout& layout : {Layout{"v1", -1.0, 1}, Layout{"v2-one", 0.0, 1},
                               Layout{"v2-three", 30.0, 3}}) {
    SCOPED_TRACE(layout.name);
    const std::string bin_dir = dir_ + "/" + layout.name;
    if (layout.chunk_seconds < 0.0) {
      save_dataset_binary(d, bin_dir);
    } else {
      save_dataset_binary_chunked(d, bin_dir, layout.chunk_seconds);
    }

    reset_dataset_io_stats();
    const TelemetryDataset from_bin = load_dataset(bin_dir);
    const DatasetIoStats stats = dataset_io_stats();
    EXPECT_EQ(stats.binary_file_reads, 1u);
    EXPECT_EQ(stats.binary_samples, channel_count_of(d) * 6u);
    EXPECT_EQ(stats.csv_file_parses, 0u);

    // Binary stores the exact doubles; CSV stores shortest round-trip text.
    // Both must reproduce the original bit-for-bit.
    expect_datasets_identical(from_bin, d);
    expect_datasets_identical(from_bin, from_csv);
    expect_datasets_identical(from_bin, reference);

    BinChunkSource source(bin_dir);
    TelemetryFrame concatenated;
    TelemetryChunk chunk;
    std::size_t pulled = 0;
    while (source.next(chunk)) {
      ++pulled;
      for (const TelemetryChannel& ch : chunk.frame().channels()) {
        concatenated.append_channel(ch.tag, ch.channel, ch.times, ch.values);
      }
      chunk.release();
    }
    EXPECT_EQ(pulled, layout.chunks);
    expect_datasets_identical(
        from_bin, DatasetFrame{source.header(), std::move(concatenated)}.to_dataset());
  }
}

TEST_F(StoreTest, SaveLoadSaveIsBitIdentical) {
  // save -> load -> save must reproduce every file byte-for-byte; with the
  // old fixed-precision formatting the second save differed.
  const TelemetryDataset d = synthetic_multi_cdu_dataset(3, 5);
  const std::string first = dir_ + "/first";
  const std::string second = dir_ + "/second";
  save_dataset(d, first);
  save_dataset(load_dataset(first), second);
  for (const char* file :
       {"manifest.json", "jobs.json", "system.csv", "cdu.csv", "facility.csv"}) {
    const std::string a = slurp(first + "/" + file);
    ASSERT_FALSE(a.empty()) << file;
    EXPECT_EQ(a, slurp(second + "/" + file)) << file;
  }
}

TEST_F(StoreTest, BinarySaveLoadSaveIsBitIdentical) {
  const TelemetryDataset d = synthetic_multi_cdu_dataset(3, 5);
  const std::string first = dir_ + "/first";
  const std::string second = dir_ + "/second";
  save_dataset_binary(d, first);
  save_dataset_binary(load_dataset(first), second);
  for (const char* file : {"manifest.json", "jobs.json", "channels.bin"}) {
    const std::string a = slurp(first + "/" + file);
    ASSERT_FALSE(a.empty()) << file;
    EXPECT_EQ(a, slurp(second + "/" + file)) << file;
  }
}

TEST_F(StoreTest, WritersProducePinnedBytes) {
  // FNV-1a digests of every file the three writers produce for one fixed
  // dataset. A digest that moves means the on-disk format moved: datasets
  // saved before the change would no longer match ones saved after it.
  const TelemetryDataset d = digest_dataset();
  save_dataset(d, dir_ + "/csv");
  save_dataset_binary(d, dir_ + "/bin");
  save_dataset_binary_chunked(d, dir_ + "/binv2", 40.0);

  const std::map<std::string, std::uint64_t> expected = {
      {"bin/channels.bin", 0xc30b234b1e896ea1ULL},
      {"bin/jobs.json", 0x8b4537739d384e61ULL},
      {"bin/manifest.json", 0xcc15f5506facd294ULL},
      {"binv2/channels.bin", 0x1f0da99df8d985eeULL},
      {"binv2/jobs.json", 0x8b4537739d384e61ULL},
      {"binv2/manifest.json", 0xd55d6b5b7bb9b11eULL},
      {"csv/cdu.csv", 0x0b472a0763fa3b36ULL},
      {"csv/facility.csv", 0xdf640b8ac3268124ULL},
      {"csv/jobs.json", 0x8b4537739d384e61ULL},
      {"csv/manifest.json", 0xcc37c5cf846a6ef1ULL},
      {"csv/system.csv", 0xcae29be3f8015f9aULL},
  };
  std::map<std::string, std::uint64_t> written;
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    written[fs::relative(entry.path(), dir_).generic_string()] =
        fnv1a64(slurp(entry.path().string()));
  }
  ASSERT_EQ(written.size(), expected.size());
  for (const auto& [file, digest] : expected) {
    EXPECT_EQ(stable_hash_hex(written[file]), stable_hash_hex(digest)) << file;
  }
}

TEST_F(StoreTest, RegistryResolvesBinaryFormat) {
  save_dataset_binary(sample_dataset(), dir_);
  auto& registry = TelemetryReaderRegistry::instance();
  ASSERT_NE(registry.find(kExadigitBinFormat), nullptr);
  const TelemetryDataset d = registry.load(kExadigitBinFormat, dir_);
  EXPECT_EQ(d.system_name, "frontier");
  ASSERT_EQ(d.cdus.size(), 2u);
  EXPECT_NEAR(d.cdus[1].htw_flow_gpm.value(0), 210.0, 0.0);
}

TEST_F(StoreTest, RegistryReaderRejectsMismatchedManifestFormat) {
  save_dataset(sample_dataset(), dir_);  // exadigit-csv on disk
  auto& registry = TelemetryReaderRegistry::instance();
  EXPECT_THROW(registry.load(kExadigitBinFormat, dir_), TelemetryError);
  const std::string bin_dir = dir_ + "_bin";
  save_dataset_binary(sample_dataset(), bin_dir);
  EXPECT_THROW(registry.load(kExadigitCsvFormat, bin_dir), TelemetryError);
  fs::remove_all(bin_dir);
}

TEST_F(StoreTest, CorruptBinarySampleCountFailsCleanly) {
  save_dataset_binary(sample_dataset(), dir_);
  // Overwrite the first channel's sample-count field (right after the
  // 8-byte magic + 8-byte channel count + tag/name strings) with garbage
  // far beyond the file size; the loader must throw, not try to allocate.
  std::fstream f(dir_ + "/channels.bin",
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(16);
  std::uint32_t tag_len = 0;
  f.read(reinterpret_cast<char*>(&tag_len), sizeof tag_len);
  f.seekp(static_cast<std::streamoff>(tag_len), std::ios::cur);
  std::uint32_t name_len = 0;
  f.read(reinterpret_cast<char*>(&name_len), sizeof name_len);
  f.seekp(static_cast<std::streamoff>(name_len), std::ios::cur);
  const std::uint64_t bogus = 1ull << 60;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  f.close();
  EXPECT_THROW(load_dataset(dir_), TelemetryError);
}

TEST_F(StoreTest, LoadDatasetAutoDetectsFormatFromManifest) {
  const TelemetryDataset d = sample_dataset();
  const std::string csv_dir = dir_ + "/csv";
  const std::string bin_dir = dir_ + "/bin";
  save_dataset(d, csv_dir);
  save_dataset_binary(d, bin_dir);
  expect_datasets_identical(load_dataset(csv_dir), load_dataset(bin_dir));
}

TEST_F(StoreTest, LoadDatasetFrameExposesColumnarChannels) {
  save_dataset(sample_dataset(), dir_);
  DatasetFrame frame = load_dataset_frame(dir_);
  EXPECT_EQ(frame.header.system_name, "frontier");
  EXPECT_EQ(frame.header.cdu_count, 2u);
  ASSERT_EQ(frame.header.jobs.size(), 1u);
  const TelemetryChannel* power = frame.frame.find(kSystemTag, "measured_power_w");
  ASSERT_NE(power, nullptr);
  ASSERT_EQ(power->size(), 3u);
  EXPECT_DOUBLE_EQ(power->values[2], 1.2e7);

  const TelemetryDataset d = std::move(frame).to_dataset();
  EXPECT_DOUBLE_EQ(d.measured_system_power_w.value(2), 1.2e7);
  EXPECT_DOUBLE_EQ(d.cdus[1].htw_flow_gpm.value(0), 210.0);
}

TEST_F(StoreTest, QuotedAndMultilineCsvRecordsFlowThroughBothLoaders) {
  // Hand-written dataset: quoted numeric cells, a quoted channel name with
  // an embedded comma AND newline, and a CRLF line ending. The streaming
  // single-pass parser must agree with the document-based reference parser.
  fs::create_directories(dir_);
  {
    std::ofstream m(dir_ + "/manifest.json");
    m << R"({"format": "exadigit-csv", "system_name": "weird", "start_time_s": 0,)"
      << R"( "duration_s": 60, "trace_quantum_s": 15, "cdu_count": 0})" << "\n";
    std::ofstream j(dir_ + "/jobs.json");
    j << "[]\n";
    std::ofstream s(dir_ + "/system.csv");
    s << "tag,channel,time_s,value\n"
      << "system,measured_power_w,0,\"1.5\"\r\n"
      << "system,\"odd,\nchannel\",0,2.5\n"
      << "\"system\",measured_power_w,\"15\",2e6\n"
      << "system,wetbulb_c,0,18.25\n";
    std::ofstream c(dir_ + "/cdu.csv");
    c << "tag,channel,time_s,value\n";
    std::ofstream f(dir_ + "/facility.csv");
    f << "tag,channel,time_s,value\n";
  }

  DatasetFrame frame = load_dataset_frame(dir_);
  const TelemetryChannel* odd = frame.frame.find("system", "odd,\nchannel");
  ASSERT_NE(odd, nullptr);
  EXPECT_DOUBLE_EQ(odd->values[0], 2.5);

  const TelemetryDataset columnar = std::move(frame).to_dataset();
  ASSERT_EQ(columnar.measured_system_power_w.size(), 2u);
  EXPECT_DOUBLE_EQ(columnar.measured_system_power_w.value(0), 1.5);
  EXPECT_DOUBLE_EQ(columnar.measured_system_power_w.value(1), 2e6);
  EXPECT_DOUBLE_EQ(columnar.wetbulb_c.value(0), 18.25);
  expect_datasets_identical(columnar, load_dataset_reference(dir_));
}

TEST_F(StoreTest, DatasetLoadIsLocaleIndependent) {
  // In a comma-decimal locale std::stod reads "1.5" as 1; the from_chars
  // pipeline must be immune. Skipped when no such locale is installed.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const char* chosen = nullptr;
  for (const char* candidate : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr) {
      chosen = candidate;
      break;
    }
  }
  if (chosen == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  struct LocaleRestore {
    std::string saved;
    ~LocaleRestore() { std::setlocale(LC_NUMERIC, saved.c_str()); }
  } restore{saved};

  const TelemetryDataset d = synthetic_multi_cdu_dataset(2, 4);
  save_dataset(d, dir_);
  expect_datasets_identical(load_dataset(dir_), d);
  expect_datasets_identical(load_dataset_reference(dir_), d);
}

TEST_F(StoreTest, CustomReaderRegistration) {
  auto& registry = TelemetryReaderRegistry::instance();
  registry.register_reader(std::make_shared<Pm100LikeReader>());
  const TelemetryDataset d = registry.load("pm100-like", "ignored");
  EXPECT_EQ(d.system_name, "marconi100");
  const auto formats = registry.formats();
  EXPECT_NE(std::find(formats.begin(), formats.end(), "pm100-like"), formats.end());
}

}  // namespace
}  // namespace exadigit
