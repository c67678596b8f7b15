/// Chunk-boundary equivalence fences (ISSUE: chunked telemetry sources).
///
/// The streaming replay driver advances the twin between chunks only to
/// cooling-quantum fire ticks at or before the wet-bulb watermark, which
/// makes every intermediate run_until a pure prefix of the monolithic run.
/// These tests pin that invariant: for every chunking geometry — one chunk,
/// odd sizes, chunk == cooling quantum, chunk misaligned with the quantum —
/// the chunked replay must be bit-identical to the in-memory path on the
/// report, on every recorded series sample, and across resumed (re-opened)
/// runs, while a budgeted bin stream keeps residency to a fraction of the
/// dataset.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/units.hpp"
#include "core/physical_twin.hpp"
#include "core/replay.hpp"
#include "raps/workload.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/store.hpp"
#include "telemetry/weather.hpp"

namespace exadigit {
namespace {

namespace fs = std::filesystem;

/// One recorded 2 h dataset shared by every test in this file (recording
/// through the physical twin is the expensive part).
const TelemetryDataset& replay_dataset() {
  static const TelemetryDataset dataset = [] {
    const SystemConfig config = frontier_system_config();
    const double duration = 2.0 * units::kSecondsPerHour;
    WorkloadGenerator gen(config.workload, config, Rng(515));
    const std::vector<JobRecord> jobs = gen.generate(0.0, duration);
    SyntheticWeather weather(WeatherConfig{}, Rng(7));
    const TimeSeries raw = weather.generate(40.0 * units::kSecondsPerDay, duration + 120.0);
    TimeSeries wetbulb;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      wetbulb.push_back(static_cast<double>(i) * 60.0, raw.value(i));
    }
    SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
    return physical.record(jobs, wetbulb, duration);
  }();
  return dataset;
}

/// The reference every chunked replay must match: the whole dataset in one
/// DigitalTwin run, with no stop before the end. It is built here rather
/// than through replay_power, whose every overload runs the chunked loop.
PowerReplayResult uninterrupted_replay(bool with_cooling) {
  const SystemConfig config = frontier_system_config();
  const TelemetryDataset& dataset = replay_dataset();
  DigitalTwinOptions options;
  options.enable_cooling = with_cooling;
  options.start_time_s = dataset.start_time_s;
  DigitalTwin twin(config, options);
  twin.set_wetbulb_series(dataset.wetbulb_c);
  twin.submit_all(dataset.jobs);
  twin.run_until(dataset.start_time_s + dataset.duration_s);

  PowerReplayResult r;
  r.predicted_power_mw = twin.engine().power_series_mw();
  const TimeSeries& measured = dataset.measured_system_power_w;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    r.measured_power_mw.push_back(measured.time(i), units::mw_from_watts(measured.value(i)));
  }
  r.eta_system = twin.engine().eta_series();
  r.utilization = twin.engine().utilization_series();
  if (with_cooling) {
    r.cooling_eff = twin.cooling_efficiency_series();
    r.pue = twin.pue_series();
  }
  r.power_score = score_series(r.predicted_power_mw, r.measured_power_mw,
                               config.simulation.cooling_quantum_s);
  r.report = twin.report();
  return r;
}

const PowerReplayResult& monolithic_replay(bool with_cooling) {
  static const PowerReplayResult no_cooling = uninterrupted_replay(false);
  static const PowerReplayResult cooling = uninterrupted_replay(true);
  return with_cooling ? cooling : no_cooling;
}

void expect_series_equal(const TimeSeries& got, const TimeSeries& want, const char* name) {
  ASSERT_EQ(got.size(), want.size()) << name;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.time(i), want.time(i)) << name << " time[" << i << "]";
    ASSERT_EQ(got.value(i), want.value(i)) << name << " value[" << i << "]";
  }
}

/// Bit-identity on every series and on the report (wall_ms excluded: it is
/// measured, not computed).
void expect_replays_identical(const PowerReplayResult& got, const PowerReplayResult& want) {
  expect_series_equal(got.predicted_power_mw, want.predicted_power_mw, "predicted_power_mw");
  expect_series_equal(got.measured_power_mw, want.measured_power_mw, "measured_power_mw");
  expect_series_equal(got.eta_system, want.eta_system, "eta_system");
  expect_series_equal(got.cooling_eff, want.cooling_eff, "cooling_eff");
  expect_series_equal(got.utilization, want.utilization, "utilization");
  expect_series_equal(got.pue, want.pue, "pue");
  EXPECT_EQ(got.report.jobs_submitted, want.report.jobs_submitted);
  EXPECT_EQ(got.report.jobs_completed, want.report.jobs_completed);
  EXPECT_EQ(got.report.total_energy_mwh, want.report.total_energy_mwh);
  EXPECT_EQ(got.report.avg_power_mw, want.report.avg_power_mw);
  EXPECT_EQ(got.report.max_power_mw, want.report.max_power_mw);
  EXPECT_EQ(got.report.avg_eta_system, want.report.avg_eta_system);
  EXPECT_EQ(got.report.makespan_s, want.report.makespan_s);
  EXPECT_EQ(got.power_score.rmse, want.power_score.rmse);
  EXPECT_EQ(got.power_score.mape_pct, want.power_score.mape_pct);
  EXPECT_EQ(got.power_score.pearson, want.power_score.pearson);
}

/// chunk_seconds sweep: 0 = whole dataset as one chunk; 97 s = odd size
/// nothing aligns with; 15 s = exactly the cooling quantum; 40 s =
/// misaligned with the 15 s quantum (lcm 120 s, so most boundaries fall
/// between fire ticks).
class ChunkGeometrySweep : public ::testing::TestWithParam<double> {};

TEST_P(ChunkGeometrySweep, ChunkedReplayBitIdenticalToInMemory) {
  const SystemConfig config = frontier_system_config();
  InMemoryChunkSource source(dataset_to_frame(replay_dataset()), GetParam());
  const PowerReplayResult chunked = replay_power(config, source, false);
  expect_replays_identical(chunked, monolithic_replay(false));
}

INSTANTIATE_TEST_SUITE_P(ChunkSeconds, ChunkGeometrySweep,
                         ::testing::Values(0.0, 97.0, 15.0, 40.0));

TEST(ChunkedReplayTest, CoupledCoolingReplayBitIdentical) {
  // The cooling plant is the stateful part the quantum-snapping exists for:
  // run the full coupled path on a misaligned chunk size.
  const SystemConfig config = frontier_system_config();
  InMemoryChunkSource source(dataset_to_frame(replay_dataset()), 40.0);
  const PowerReplayResult chunked = replay_power(config, source, true);
  expect_replays_identical(chunked, monolithic_replay(true));
}

TEST(ChunkedReplayTest, DatasetOverloadBitIdenticalToUninterruptedRun) {
  // The TelemetryDataset overload is a one-chunk adapter over the chunked
  // loop; it must still give the uninterrupted run's bits, with and without
  // the plant.
  const SystemConfig config = frontier_system_config();
  expect_replays_identical(replay_power(config, replay_dataset(), false),
                           monolithic_replay(false));
  expect_replays_identical(replay_power(config, replay_dataset(), true), monolithic_replay(true));
}

class ChunkedReplayFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("exadigit_chunked_replay_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ChunkedReplayFileTest, BudgetedBinStreamBitIdenticalAndBounded) {
  const SystemConfig config = frontier_system_config();
  save_dataset_binary_chunked(replay_dataset(), dir_, 600.0);  // 12 chunks

  BinChunkSource::Options options;
  options.max_resident_mb = 1.0;
  BinChunkSource source(dir_, options);
  const PowerReplayResult streamed = replay_power(config, source, false);
  expect_replays_identical(streamed, monolithic_replay(false));

  // Out-of-core claim: the stream never held more than the budget plus one
  // in-flight chunk, and held strictly less than the whole dataset.
  const std::size_t peak = source.gauge()->peak_bytes();
  EXPECT_GT(peak, 0u);
  EXPECT_LT(peak, dataset_payload_bytes(replay_dataset()));
  std::size_t largest_chunk = 0;
  for (const ChunkIndexEntry& e : source.chunk_index()) {
    largest_chunk = std::max(largest_chunk, static_cast<std::size_t>(e.bytes));
  }
  EXPECT_LE(peak, static_cast<std::size_t>(1024 * 1024) + largest_chunk);
}

TEST_F(ChunkedReplayFileTest, ResumedRunsBitIdentical) {
  // "Resumed" = a fresh source over the same on-disk dataset in a new twin,
  // as a restarted service would do. Two resumptions must agree with each
  // other and with the in-memory path.
  const SystemConfig config = frontier_system_config();
  save_dataset_binary_chunked(replay_dataset(), dir_, 900.0);

  BinChunkSource first(dir_);
  const PowerReplayResult a = replay_power(config, first, false);
  BinChunkSource second(dir_);
  const PowerReplayResult b = replay_power(config, second, false);

  expect_replays_identical(a, monolithic_replay(false));
  expect_replays_identical(b, a);
}

}  // namespace
}  // namespace exadigit
