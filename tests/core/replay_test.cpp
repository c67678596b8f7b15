#include "core/replay.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

/// Shared fixture: one physical-twin dataset reused by all replay tests
/// (generation is the expensive part).
class ReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new SystemConfig(frontier_system_config());
    SyntheticPhysicalTwin twin(*spec_, PhysicalTwinOptions{});
    WorkloadGenerator gen(spec_->workload, *spec_, Rng(42));
    std::vector<JobRecord> jobs = gen.generate(0.0, kDuration);
    jobs.push_back(make_hpl_job(2.0 * 3600.0, 1800.0));
    const std::size_t n = static_cast<std::size_t>(kDuration / 60.0) + 2;
    dataset_ = new TelemetryDataset(
        twin.record(jobs, TimeSeries::uniform(0.0, 60.0, std::vector<double>(n, 16.0)),
                    kDuration));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete spec_;
    dataset_ = nullptr;
    spec_ = nullptr;
  }

  static constexpr double kDuration = 5.0 * 3600.0;
  static SystemConfig* spec_;
  static TelemetryDataset* dataset_;
};

SystemConfig* ReplayTest::spec_ = nullptr;
TelemetryDataset* ReplayTest::dataset_ = nullptr;

TEST_F(ReplayTest, ScoreSeriesMetrics) {
  const TimeSeries a = TimeSeries::uniform(0.0, 1.0, {1.0, 2.0, 3.0, 4.0});
  const TimeSeries b = TimeSeries::uniform(0.0, 1.0, {1.5, 2.5, 3.5, 4.5});
  const SeriesScore s = score_series(a, b, 1.0);
  EXPECT_NEAR(s.rmse, 0.5, 1e-12);
  EXPECT_NEAR(s.mae, 0.5, 1e-12);
  EXPECT_NEAR(s.pearson, 1.0, 1e-9);
}

TEST_F(ReplayTest, ScoreSeriesKeepsFinalSampleDespiteFpNoise) {
  // (t1 - t0) / dt = 0.3 / 0.1 = 2.9999999999999996 in doubles; truncation
  // used to score only 3 of the 4 samples, silently ignoring any final-
  // sample error. The series below agree everywhere except the last point.
  const TimeSeries a({0.0, 0.1, 0.2, 0.3}, {1.0, 1.0, 1.0, 1.0});
  const TimeSeries b({0.0, 0.1, 0.2, 0.3}, {1.0, 1.0, 1.0, 5.0});
  ASSERT_LT((a.end_time() - a.start_time()) / 0.1, 3.0);  // the FP hazard is real
  const SeriesScore s = score_series(a, b, 0.1);
  EXPECT_GT(s.rmse, 1.0);  // 4 samples incl. the mismatch: sqrt(16/4) = 2
  EXPECT_NEAR(s.rmse, 2.0, 1e-9);
}

TEST_F(ReplayTest, ScoreSeriesStillTruncatesGenuineFractionalSpans) {
  // A half-step overhang is not FP noise: [0, 0.25] on dt=0.1 has samples
  // at 0, 0.1, 0.2 only.
  const TimeSeries a({0.0, 0.25}, {1.0, 1.0});
  const TimeSeries b({0.0, 0.1, 0.2, 0.25}, {1.0, 1.0, 1.0, 9.0});
  const SeriesScore s = score_series(a, b, 0.1);
  // Resampled at 0/0.1/0.2: b's spike at 0.25 never enters the grid.
  EXPECT_LT(s.rmse, 1.0);
}

TEST_F(ReplayTest, FrameOverloadMatchesDatasetReplay) {
  // The frame overload carries every channel, the dataset overload only the
  // system ones; both must give the same bits.
  const PowerReplayResult direct = replay_power(*spec_, *dataset_, /*with_cooling=*/false);
  const PowerReplayResult framed = replay_power(*spec_, dataset_to_frame(*dataset_), false);

  ASSERT_EQ(framed.predicted_power_mw.size(), direct.predicted_power_mw.size());
  for (std::size_t i = 0; i < framed.predicted_power_mw.size(); ++i) {
    ASSERT_EQ(framed.predicted_power_mw.value(i), direct.predicted_power_mw.value(i));
  }
  EXPECT_EQ(framed.power_score.rmse, direct.power_score.rmse);
  EXPECT_EQ(framed.report.jobs_completed, direct.report.jobs_completed);
  EXPECT_EQ(framed.report.total_energy_mwh, direct.report.total_energy_mwh);
}

TEST_F(ReplayTest, ScoreSeriesRequiresOverlap) {
  const TimeSeries a = TimeSeries::uniform(0.0, 1.0, {1.0, 2.0});
  const TimeSeries b = TimeSeries::uniform(100.0, 1.0, {1.0, 2.0});
  EXPECT_THROW(score_series(a, b, 1.0), ConfigError);
}

TEST_F(ReplayTest, PowerReplayTracksMeasuredWithinFivePercent) {
  // Fig. 9 headline: the DT's predicted power follows the measured trace.
  const PowerReplayResult r = replay_power(*spec_, *dataset_, /*with_cooling=*/false);
  EXPECT_LT(r.power_score.mape_pct, 5.0);
  EXPECT_GT(r.power_score.pearson, 0.98);
  // Every recorded job re-enters the twin; late starters may still be
  // running when the window closes (just as on the physical machine).
  EXPECT_EQ(r.report.jobs_submitted, static_cast<int>(dataset_->jobs.size()));
  EXPECT_LE(r.report.jobs_completed, r.report.jobs_submitted);
  EXPECT_GT(r.report.jobs_completed, r.report.jobs_submitted * 3 / 4);
}

TEST_F(ReplayTest, PowerReplayEtaSeriesNear093) {
  const PowerReplayResult r = replay_power(*spec_, *dataset_, false);
  ASSERT_FALSE(r.eta_system.empty());
  const double eta = r.eta_system.time_weighted_mean();
  EXPECT_GT(eta, 0.91);
  EXPECT_LT(eta, 0.96);
}

TEST_F(ReplayTest, CoupledReplayAddsCoolingChannels) {
  const PowerReplayResult r = replay_power(*spec_, *dataset_, /*with_cooling=*/true);
  EXPECT_FALSE(r.pue.empty());
  EXPECT_FALSE(r.cooling_eff.empty());
  // eta_cooling = H / P_system ~ 0.9-0.95 (paper Fig. 9 blue trace).
  const double eta_cooling = r.cooling_eff.time_weighted_mean();
  EXPECT_GT(eta_cooling, 0.85);
  EXPECT_LT(eta_cooling, 0.95);
}

TEST_F(ReplayTest, CoolingValidationReproducesFig7Bounds) {
  const CoolingValidationResult r = validate_cooling(*spec_, *dataset_);
  // Fig. 7 "within reasonable bounds": flows within a few % of the
  // measured fleet average, temperatures within ~2 C.
  EXPECT_LT(r.cdu_pri_flow.mape_pct, 12.0);
  EXPECT_LT(r.cdu_return_temp.rmse, 2.5);
  EXPECT_LT(r.htw_supply_pressure.mape_pct, 10.0);
  // Fig. 7(d): PUE within 1.4 % of telemetry.
  EXPECT_LT(r.pue_max_rel_error, 0.014);
  EXPECT_FALSE(r.predicted_flow_gpm.empty());
  EXPECT_EQ(r.predicted_flow_gpm.size(), r.measured_flow_gpm.size());
}

/// Job traces are indexed by simulation.trace_quantum_s, so a dataset
/// recorded at a 30 s trace quantum would replay under Frontier's 15 s at
/// twice its speed; every replay overload refuses it, naming both values.
TEST_F(ReplayTest, DatasetFromAnotherTraceQuantumRejected) {
  SystemConfig recorded_under = *spec_;
  recorded_under.simulation.trace_quantum_s = 30.0;
  SyntheticPhysicalTwin twin(recorded_under, PhysicalTwinOptions{});
  WorkloadGenerator gen(recorded_under.workload, recorded_under, Rng(7));
  const TelemetryDataset dataset =
      twin.record(gen.generate(0.0, 3600.0),
                  TimeSeries::uniform(0.0, 60.0, std::vector<double>(62, 16.0)), 3600.0);
  ASSERT_EQ(dataset.trace_quantum_s, 30.0);
  auto expect_rejected = [](auto&& replay) {
    try {
      replay();
      ADD_FAILURE() << "replayed a 30 s dataset under a 15 s trace quantum";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("30 s"), std::string::npos) << what;
      EXPECT_NE(what.find("simulation.trace_quantum_s = 15 s"), std::string::npos) << what;
    }
  };
  expect_rejected([&] { (void)replay_power(*spec_, dataset, false); });
  expect_rejected([&] { (void)replay_power(*spec_, dataset, true); });
  expect_rejected([&] {
    (void)replay_power(*spec_, DatasetFrame{DatasetHeader::copy_from(dataset), TelemetryFrame{}},
                       false);
  });
  // Under the quantum it was recorded at, it replays.
  EXPECT_NO_THROW((void)replay_power(recorded_under, dataset, false));
}

TEST_F(ReplayTest, CduCountMismatchRejected) {
  TelemetryDataset bad = *dataset_;
  bad.cdus.resize(10);
  EXPECT_THROW(validate_cooling(*spec_, bad), ConfigError);
}

}  // namespace
}  // namespace exadigit
