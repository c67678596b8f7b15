/// Determinism fences: a digital twin used for forensic diagnostics must
/// produce bit-identical results for identical inputs — replays are
/// evidence. These tests pin the whole stack (workload generation, engine,
/// plant, FMU, physical twin) to byte-reproducibility and verify that the
/// coupled twin's results do not depend on chunked vs monolithic stepping.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

TEST(DeterminismTest, CoupledRunsBitIdentical) {
  const SystemConfig config = frontier_system_config();
  auto run = [&config]() {
    DigitalTwin twin(config);
    twin.set_wetbulb_constant(16.0);
    WorkloadGenerator gen(config.workload, config, Rng(77));
    twin.submit_all(gen.generate(0.0, 2.0 * units::kSecondsPerHour));
    twin.run_until(2.0 * units::kSecondsPerHour);
    return std::make_pair(twin.engine().power_series_mw().values(),
                          twin.pue_series().values());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i], b.first[i]) << "power sample " << i;
  }
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_EQ(a.second[i], b.second[i]) << "pue sample " << i;
  }
}

/// Every series a coupled twin records: the engine's four, then the plant
/// and per-CDU series (159 for Frontier).
std::vector<const TimeSeries*> recorded_series(const DigitalTwin& twin) {
  std::vector<const TimeSeries*> all = {
      &twin.engine().power_series_mw(),   &twin.engine().loss_series_mw(),
      &twin.engine().utilization_series(), &twin.engine().eta_series(),
      &twin.pue_series(),                 &twin.htws_temp_series(),
      &twin.pri_return_temp_series(),     &twin.htw_supply_pressure_series(),
      &twin.cooling_efficiency_series()};
  for (const CduSeries& cdu : twin.cdu_series()) {
    for (const TimeSeries* s : {&cdu.pri_flow_gpm, &cdu.sec_flow_gpm, &cdu.return_temp_c,
                                &cdu.supply_temp_c, &cdu.pump_power_w}) {
      all.push_back(s);
    }
  }
  for (const TimeSeries& s : twin.cdu_rack_power_series()) all.push_back(&s);
  return all;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DeterminismTest, ChunkedRunMatchesMonolithic) {
  // run_until(T) in one call vs many small calls must land on the same
  // state: nothing in the engine may depend on the observation schedule.
  // The 60 s chunks end every run_until on a partly filled recorder block,
  // so the comparison covers every sample of every recorded series too.
  // It also crosses the twin's two paths: the 3600 s call adds 240 quanta
  // and steps the plant on a worker thread behind the engine, while each
  // 60 s call adds 4 quanta and steps it inline.
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(78));
  const auto jobs = gen.generate(0.0, 3600.0);

  DigitalTwin mono(config);
  mono.set_wetbulb_constant(16.0);
  mono.submit_all(jobs);
  mono.run_until(3600.0);

  DigitalTwin chunked(config);
  chunked.set_wetbulb_constant(16.0);
  chunked.submit_all(jobs);
  for (int t = 60; t <= 3600; t += 60) chunked.run_until(static_cast<double>(t));

  EXPECT_EQ(mono.engine().power().system_power_w,
            chunked.engine().power().system_power_w);
  EXPECT_EQ(mono.engine().jobs_completed(), chunked.engine().jobs_completed());
  EXPECT_EQ(mono.cooling().outputs().pue, chunked.cooling().outputs().pue);
  EXPECT_EQ(mono.cooling().outputs().pri_supply_t_c,
            chunked.cooling().outputs().pri_supply_t_c);
  EXPECT_EQ(mono.cooling().step_count(), chunked.cooling().step_count());
  EXPECT_EQ(mono.cooling().hydraulics_stats().solves_performed,
            chunked.cooling().hydraulics_stats().solves_performed);
  EXPECT_EQ(mono.cooling().hydraulics_stats().reused_unchanged,
            chunked.cooling().hydraulics_stats().reused_unchanged);
  EXPECT_EQ(mono.cooling().hydraulics_stats().reused_shared,
            chunked.cooling().hydraulics_stats().reused_shared);
  EXPECT_EQ(mono.cooling().thermal_stats().hx_evaluated,
            chunked.cooling().thermal_stats().hx_evaluated);
  const std::vector<const TimeSeries*> a = recorded_series(mono);
  const std::vector<const TimeSeries*> b = recorded_series(chunked);
  ASSERT_EQ(a.size(), 159u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i]->empty()) << "series " << i;
    EXPECT_TRUE(same_bits(a[i]->times(), b[i]->times())) << "series " << i << " times";
    EXPECT_TRUE(same_bits(a[i]->values(), b[i]->values())) << "series " << i << " values";
  }
}

TEST(DeterminismTest, PhysicalTwinDatasetsBitIdentical) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(79));
  const auto jobs = gen.generate(0.0, 3600.0);
  const TimeSeries wetbulb =
      TimeSeries::uniform(0.0, 60.0, std::vector<double>(62, 14.0));
  auto record = [&]() {
    SyntheticPhysicalTwin twin(config, PhysicalTwinOptions{});
    return twin.record(jobs, wetbulb, 3600.0);
  };
  const TelemetryDataset a = record();
  const TelemetryDataset b = record();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].fixed_start_time_s, b.jobs[i].fixed_start_time_s);
  }
  ASSERT_EQ(a.measured_system_power_w.size(), b.measured_system_power_w.size());
  for (std::size_t i = 0; i < a.measured_system_power_w.size(); ++i) {
    EXPECT_EQ(a.measured_system_power_w.value(i), b.measured_system_power_w.value(i));
  }
}

/// Seeds sweep: different seeds must actually produce different workloads
/// (no accidental seed-ignoring), while each seed stays self-consistent.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SeedChangesWorkloadDeterministically) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator a(config.workload, config, Rng(GetParam()));
  WorkloadGenerator b(config.workload, config, Rng(GetParam()));
  WorkloadGenerator c(config.workload, config, Rng(GetParam() + 1));
  const auto ja = a.generate(0.0, 7200.0);
  const auto jb = b.generate(0.0, 7200.0);
  const auto jc = c.generate(0.0, 7200.0);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].submit_time_s, jb[i].submit_time_s);
    EXPECT_EQ(ja[i].node_count, jb[i].node_count);
  }
  bool differs = jc.size() != ja.size();
  for (std::size_t i = 0; !differs && i < std::min(ja.size(), jc.size()); ++i) {
    differs = ja[i].submit_time_s != jc[i].submit_time_s;
  }
  EXPECT_TRUE(differs) << "seed " << GetParam() << "+1 produced an identical workload";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 42u, 1000u, 99999u));

}  // namespace
}  // namespace exadigit
