/// Event-driven engine core: bit-identity against the legacy tick loop,
/// the energy-accounting fixes (tail-interval flush, exact quantum
/// boundaries), arrival-order determinism, and energy conservation between
/// the report integrals and the recorded series.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

SystemConfig small_system() {
  SystemConfig c = frontier_system_config();
  c.cdu_count = 2;
  c.racks_per_cdu = 2;
  c.rack_count = 4;  // 512 nodes
  return c;
}

/// A mixed workload: generated jobs, a replay job off the quantum grid, and
/// duplicate-timestamp arrivals, all `start_s` later than drawn.
std::vector<JobRecord> mixed_jobs(const SystemConfig& config, double horizon_s,
                                  double start_s = 0.0) {
  WorkloadConfig wl = config.workload;
  wl.mean_arrival_s = 90.0;
  wl.mean_nodes = 50.0;
  wl.mean_walltime_s = 400.0;
  WorkloadGenerator gen(wl, config, Rng(7));
  std::vector<JobRecord> jobs = gen.generate(0.0, horizon_s * 0.8);
  JobRecord replay = make_constant_job(0.0, 333.0, 64, 0.8, 0.9);
  replay.fixed_start_time_s = 121.0;
  replay.id = 777001;
  jobs.push_back(replay);
  JobRecord a = make_constant_job(47.0, 200.0, 16, 0.5, 0.5);
  a.id = 777003;
  JobRecord b = a;
  b.id = 777002;
  jobs.push_back(a);
  jobs.push_back(b);
  for (JobRecord& job : jobs) {
    job.submit_time_s += start_s;
    if (job.is_replay()) job.fixed_start_time_s += start_s;
  }
  return jobs;
}

struct RunResult {
  Report report;
  TimeSeries power, loss, util, eta;
  double now_s = 0.0;
  std::vector<double> cooling_calls;
};

RunResult run_mode(const SystemConfig& config, EngineMode mode, double t_end_s,
                   RapsEngine::PowerEval eval = RapsEngine::PowerEval::kIncremental,
                   double start_s = 0.0) {
  RapsEngine::Options options;
  options.start_time_s = start_s;
  options.power_eval = eval;
  options.mode = mode;
  RapsEngine engine(config, options);
  RunResult r;
  engine.set_cooling_callback(
      [&r](RapsEngine&, double now) { r.cooling_calls.push_back(now); });
  engine.submit_all(mixed_jobs(config, t_end_s - start_s, start_s));
  engine.run_until(t_end_s);
  r.report = engine.report();
  r.power = engine.power_series_mw();
  r.loss = engine.loss_series_mw();
  r.util = engine.utilization_series();
  r.eta = engine.eta_series();
  r.now_s = engine.now_s();
  return r;
}

void expect_series_identical(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.time(i), b.time(i)) << "at index " << i;
    ASSERT_EQ(a.value(i), b.value(i)) << "at index " << i;
  }
}

void expect_bit_identical(const RunResult& ev, const RunResult& tk) {
  EXPECT_EQ(ev.report.duration_s, tk.report.duration_s);
  EXPECT_EQ(ev.report.jobs_submitted, tk.report.jobs_submitted);
  EXPECT_EQ(ev.report.jobs_completed, tk.report.jobs_completed);
  EXPECT_EQ(ev.report.avg_power_mw, tk.report.avg_power_mw);
  EXPECT_EQ(ev.report.avg_loss_mw, tk.report.avg_loss_mw);
  EXPECT_EQ(ev.report.min_power_mw, tk.report.min_power_mw);
  EXPECT_EQ(ev.report.max_power_mw, tk.report.max_power_mw);
  EXPECT_EQ(ev.report.total_energy_mwh, tk.report.total_energy_mwh);
  EXPECT_EQ(ev.report.avg_eta_system, tk.report.avg_eta_system);
  EXPECT_EQ(ev.report.avg_utilization, tk.report.avg_utilization);
  EXPECT_EQ(ev.report.carbon_tons, tk.report.carbon_tons);
  EXPECT_EQ(ev.now_s, tk.now_s);
  expect_series_identical(ev.power, tk.power);
  expect_series_identical(ev.loss, tk.loss);
  expect_series_identical(ev.util, tk.util);
  expect_series_identical(ev.eta, tk.eta);
  ASSERT_EQ(ev.cooling_calls.size(), tk.cooling_calls.size());
  for (std::size_t i = 0; i < ev.cooling_calls.size(); ++i) {
    ASSERT_EQ(ev.cooling_calls[i], tk.cooling_calls[i]);
  }
}

TEST(EventEngineTest, BitIdenticalToTickLoop) {
  const SystemConfig config = small_system();
  const double t_end = 2.0 * units::kSecondsPerHour;
  expect_bit_identical(run_mode(config, EngineMode::kEventDriven, t_end),
                       run_mode(config, EngineMode::kTickLoop, t_end));
}

TEST(EventEngineTest, BitIdenticalWithOffQuantumEnd) {
  const SystemConfig config = small_system();
  const double t_end = 2.0 * units::kSecondsPerHour + 7.0;  // off the 15 s quantum
  expect_bit_identical(run_mode(config, EngineMode::kEventDriven, t_end),
                       run_mode(config, EngineMode::kTickLoop, t_end));
}

TEST(EventEngineTest, BitIdenticalWithNonIntegerQuantumRatio) {
  SystemConfig config = small_system();
  config.simulation.cooling_quantum_s = 2.5;  // not a float multiple of tick_s
  config.cooling.thermal_substep_s = 2.5;     // a substep never exceeds the quantum
  expect_bit_identical(run_mode(config, EngineMode::kEventDriven, 600.0),
                       run_mode(config, EngineMode::kTickLoop, 600.0));
}

TEST(EventEngineTest, BitIdenticalWithFineTraceQuantum) {
  SystemConfig config = small_system();
  config.simulation.trace_quantum_s = 5.0;  // finer than the cooling quantum
  expect_bit_identical(run_mode(config, EngineMode::kEventDriven, 900.0),
                       run_mode(config, EngineMode::kTickLoop, 900.0));
}

/// A fractional grid: quarter-second ticks from t = 0.1 s, so tick times,
/// job ages and trace boundaries all round, with 5 s traces finer than the
/// quantum. The event-driven loop still stops on every tick the tick loop
/// samples on.
TEST(EventEngineTest, BitIdenticalOnFractionalGrid) {
  SystemConfig config = small_system();
  config.simulation.tick_s = 0.25;
  config.simulation.trace_quantum_s = 5.0;
  const double start = 0.1;
  const double t_end = start + 1800.0;
  const RapsEngine::PowerEval eval = RapsEngine::PowerEval::kIncremental;
  const RunResult event = run_mode(config, EngineMode::kEventDriven, t_end, eval, start);
  EXPECT_GT(event.report.jobs_completed, 0);
  expect_bit_identical(event, run_mode(config, EngineMode::kTickLoop, t_end, eval, start));
}

/// Regression (one-sample lag): on quarter-second ticks from t = 0.1 s, a
/// job fixed at 15.1 s is 59.999999999999993 s old at the 75.1 s quantum.
/// The engine counted that as trace sample 4 while the power model read
/// sample 3, so the job replayed its trace one sample late. Both now ask
/// trace_sample_index.
TEST(EventEngineTest, QuantumSampleReadsTheTraceSampleItFallsIn) {
  SystemConfig config = small_system();
  config.simulation.tick_s = 0.25;
  config.simulation.trace_quantum_s = 15.0;
  config.simulation.cooling_quantum_s = 15.0;
  RapsEngine::Options options;
  options.start_time_s = 0.1;
  RapsEngine engine(config, options);
  JobRecord job = make_constant_job(0.0, 150.0, 256, 0.0, 0.0);
  job.fixed_start_time_s = 15.1;
  job.gpu_util_trace = {0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9};
  engine.submit(job);
  engine.run_until(100.1);

  ASSERT_EQ(engine.job_start_log().size(), 1u);
  const double started = engine.job_start_log()[0].start_time_s;
  EXPECT_EQ(started, 15.1);
  const TimeSeries& p = engine.power_series_mw();
  bool seen = false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (std::abs(p.time(i) - 75.1) > 1e-9) continue;
    seen = true;
    EXPECT_EQ(p.time(i) - started, 59.999999999999993);
    EXPECT_EQ(trace_sample_index(p.time(i) - started, 15.0), 4.0);
    EXPECT_NEAR(p.value(i), 0.449774, 1e-6);  // sample 4 (0.1); sample 3 (0.9) reads 0.859305
  }
  EXPECT_TRUE(seen);
}

/// Regression (quantum drift): with dt=1 and quantum=2.5 the old
/// `fmod(t, quantum) < dt/2` trigger only fired on even multiples (t=5,
/// 10, ...), skipping every odd boundary. The integer-boundary arithmetic
/// fires on the first tick at or past each boundary: 3, 5, 8, 10, 13, 15.
/// last_quantum_fire_s names the same fire times.
TEST(EventEngineTest, QuantumBoundariesExactWithNonIntegerRatio) {
  SystemConfig config = small_system();
  config.simulation.cooling_quantum_s = 2.5;
  config.cooling.thermal_substep_s = 2.5;
  RapsEngine engine(config);
  std::vector<double> calls;
  engine.set_cooling_callback([&](RapsEngine&, double now) { calls.push_back(now); });
  engine.run_until(15.0);
  const std::vector<double> expected{3.0, 5.0, 8.0, 10.0, 13.0, 15.0};
  ASSERT_EQ(calls.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(calls[i], expected[i]) << "boundary index " << i;
  }
  for (double t = 0.0; t <= 15.0; t += 0.5) {
    double latest = 0.0;  // the run's start: no boundary fires before t = 3
    for (double c : expected) latest = c <= t ? c : latest;
    EXPECT_DOUBLE_EQ(engine.last_quantum_fire_s(t), latest) << "t = " << t;
  }
}

/// Regression (tail drop): the old run_until never integrated the span
/// between the last quantum/membership sample and t_end, so an idle hour
/// ending 7 s off the quantum under-counted energy by those 7 seconds.
TEST(EventEngineTest, TailFlushClosesEnergyIntegralOffQuantum) {
  RapsEngine engine(small_system());
  const double t_end = units::kSecondsPerHour + 7.0;
  engine.run_until(t_end);
  EXPECT_DOUBLE_EQ(engine.now_s(), t_end);
  const Report r = engine.report();
  EXPECT_DOUBLE_EQ(r.duration_s, t_end);
  // Idle machine at constant power: energy must cover the full window.
  const double expected_mwh = r.avg_power_mw * (t_end / units::kSecondsPerHour);
  EXPECT_NEAR(r.total_energy_mwh, expected_mwh, expected_mwh * 1e-12);
  // The series closes exactly at t_end.
  const TimeSeries& p = engine.power_series_mw();
  ASSERT_FALSE(p.empty());
  EXPECT_DOUBLE_EQ(p.time(p.size() - 1), t_end);
}

/// Off-grid ends (t_end not a tick multiple) flush too, and a follow-up
/// run_until continues without double counting.
TEST(EventEngineTest, TailFlushHandlesOffGridEnd) {
  RapsEngine engine(small_system());
  engine.run_until(50.7);
  EXPECT_DOUBLE_EQ(engine.now_s(), 50.7);
  const Report mid = engine.report();
  EXPECT_NEAR(mid.total_energy_mwh,
              mid.avg_power_mw * (50.7 / units::kSecondsPerHour),
              mid.avg_power_mw * 1e-12);
  engine.run_until(100.0);
  const Report r = engine.report();
  EXPECT_DOUBLE_EQ(r.duration_s, 100.0);
  EXPECT_NEAR(r.total_energy_mwh, r.avg_power_mw * (100.0 / units::kSecondsPerHour),
              r.avg_power_mw * 1e-12);
}

/// Regression (unstable ordering): jobs sharing a submit time must enqueue
/// in id order no matter the submission order.
TEST(EventEngineTest, DuplicateTimestampArrivalsOrderById) {
  RapsEngine engine(small_system());
  const std::vector<std::int64_t> scrambled{5, 3, 9, 1, 7, 2};
  for (const std::int64_t id : scrambled) {
    JobRecord j = make_constant_job(10.0, 120.0, 8, 0.5, 0.5);
    j.id = id;
    j.name = "dup-" + std::to_string(id);
    engine.submit(j);
  }
  engine.run_until(60.0);
  const auto& log = engine.job_start_log();
  ASSERT_EQ(log.size(), scrambled.size());
  std::vector<std::int64_t> sorted = scrambled;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].record.id, sorted[i]) << "start position " << i;
  }
}

TEST(EventEngineTest, DuplicateFixedStartReplayOrderById) {
  RapsEngine engine(small_system());
  for (const std::int64_t id : {42, 12, 33}) {
    JobRecord j = make_constant_job(0.0, 100.0, 4, 0.5, 0.5);
    j.fixed_start_time_s = 30.0;
    j.id = id;
    engine.submit(j);
  }
  engine.run_until(40.0);
  const auto& log = engine.job_start_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].record.id, 12);
  EXPECT_EQ(log[1].record.id, 33);
  EXPECT_EQ(log[2].record.id, 42);
}

/// Energy conservation: report().total_energy_mwh equals the rectangle
/// integral of power_series() (power is piecewise-constant, held from each
/// sample), and avg_utilization the identically left-held utilization
/// integral — across membership churn and off-quantum ends.
void expect_energy_conserved(const RapsEngine& engine) {
  const TimeSeries& p = engine.power_series_mw();
  const TimeSeries& u = engine.utilization_series();
  ASSERT_GE(p.size(), 2u);
  double energy_mwh = 0.0;
  double util_integral = 0.0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const double span_h = (p.time(i + 1) - p.time(i)) / units::kSecondsPerHour;
    energy_mwh += p.value(i) * span_h;  // left-held power
    util_integral += u.value(i) * (u.time(i + 1) - u.time(i));  // left-held
  }
  const Report r = engine.report();
  EXPECT_NEAR(r.total_energy_mwh, energy_mwh, std::abs(energy_mwh) * 1e-9);
  const double duration = p.time(p.size() - 1) - p.time(0);
  EXPECT_NEAR(r.avg_utilization, util_integral / duration,
              std::max(1e-12, r.avg_utilization * 1e-9));
}

TEST(EventEngineTest, EnergyConservationWithMembershipChurn) {
  const SystemConfig config = small_system();
  RapsEngine engine(config);
  engine.submit_all(mixed_jobs(config, 3600.0));
  engine.run_until(3600.0 + 11.0);  // off-quantum end
  EXPECT_GT(engine.jobs_completed(), 0);
  expect_energy_conserved(engine);
}

TEST(EventEngineTest, EnergyConservationCoolingDisabledTwin) {
  const SystemConfig config = small_system();
  DigitalTwinOptions options;
  options.enable_cooling = false;
  DigitalTwin twin(config, options);
  twin.submit_all(mixed_jobs(config, 1800.0));
  twin.run_until(1800.0 + 4.0);
  expect_energy_conserved(twin.engine());
}

TEST(EventEngineTest, EnergyConservationCoupledTwin) {
  const SystemConfig config = small_system();
  DigitalTwin twin(config);
  twin.submit_all(mixed_jobs(config, 1800.0));
  twin.run_until(1800.0);
  expect_energy_conserved(twin.engine());
  EXPECT_FALSE(twin.pue_series().empty());
}

/// The incremental power evaluator must agree with the full per-sample
/// rebuild across a run with churn (it only differs by floating-point
/// accumulation order).
TEST(EventEngineTest, IncrementalMatchesFullRecompute) {
  const SystemConfig config = small_system();
  const double t_end = 2.0 * units::kSecondsPerHour;
  const RunResult inc = run_mode(config, EngineMode::kEventDriven, t_end,
                                 RapsEngine::PowerEval::kIncremental);
  const RunResult full = run_mode(config, EngineMode::kEventDriven, t_end,
                                  RapsEngine::PowerEval::kFullRecompute);
  ASSERT_EQ(inc.power.size(), full.power.size());
  for (std::size_t i = 0; i < inc.power.size(); ++i) {
    ASSERT_EQ(inc.power.time(i), full.power.time(i));
    ASSERT_NEAR(inc.power.value(i), full.power.value(i),
                std::abs(full.power.value(i)) * 1e-9);
  }
  EXPECT_NEAR(inc.report.total_energy_mwh, full.report.total_energy_mwh,
              full.report.total_energy_mwh * 1e-9);
  EXPECT_NEAR(inc.report.avg_loss_mw, full.report.avg_loss_mw,
              full.report.avg_loss_mw * 1e-9);
  EXPECT_EQ(inc.report.jobs_completed, full.report.jobs_completed);
}

/// With traces finer than the cooling quantum, the engine samples at trace
/// boundaries too (both modes — they stay bit-identical), so utilization
/// steps between cooling quanta reach the energy integral.
TEST(EventEngineTest, FineTraceBoundariesAreSampled) {
  SystemConfig config = small_system();
  config.simulation.trace_quantum_s = 5.0;
  RapsEngine engine(config);
  JobRecord j = make_constant_job(0.0, 600.0, 256, 0.0, 0.0);
  j.gpu_util_trace = {0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9};
  engine.submit(j);
  engine.run_until(30.0);
  const TimeSeries& p = engine.power_series_mw();
  std::vector<double> times;
  for (std::size_t i = 0; i < p.size(); ++i) times.push_back(p.time(i));
  // Job starts at t=1 (first tick after submit); trace boundaries at 6, 11,
  // 16, ... must appear between the 15 s cooling quanta.
  EXPECT_NE(std::find(times.begin(), times.end(), 6.0), times.end());
  EXPECT_NE(std::find(times.begin(), times.end(), 11.0), times.end());
}

}  // namespace
}  // namespace exadigit
