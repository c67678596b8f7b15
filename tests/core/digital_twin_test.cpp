#include "core/digital_twin.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fmi/cooling_fmu.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

TEST(DigitalTwinTest, CoupledRunRecordsAllSeries) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.submit(make_hpl_job(60.0, 1200.0));
  twin.run_until(1800.0);
  EXPECT_FALSE(twin.pue_series().empty());
  EXPECT_FALSE(twin.htws_temp_series().empty());
  EXPECT_FALSE(twin.cooling_efficiency_series().empty());
  EXPECT_EQ(twin.cdu_series().size(), 25u);
  EXPECT_EQ(twin.cdu_series()[0].pri_flow_gpm.size(), twin.pue_series().size());
  EXPECT_EQ(twin.cdu_rack_power_series().size(), 25u);
}

TEST(DigitalTwinTest, CoolingEfficiencyNearConfiguredValue) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.run_until(600.0);
  // eta_cooling = H / P_system; H = 0.945 * rack wall power, so the ratio
  // sits just below 0.945 (CDU pumps are in P_system but not in H).
  const double eta = twin.cooling_efficiency_series().values().back();
  EXPECT_GT(eta, 0.90);
  EXPECT_LT(eta, 0.945);
}

TEST(DigitalTwinTest, CoolingDisabledSkipsFmu) {
  DigitalTwinOptions options;
  options.enable_cooling = false;
  DigitalTwin twin(frontier_system_config(), options);
  twin.run_until(300.0);
  EXPECT_FALSE(twin.cooling_enabled());
  EXPECT_TRUE(twin.pue_series().empty());
  EXPECT_THROW(twin.cooling(), ConfigError);
  // Power side still runs.
  EXPECT_GT(twin.engine().power().system_power_w, 1e6);
}

TEST(DigitalTwinTest, WetbulbSeriesDrivesPlant) {
  // Weather propagates into the loops (the paper's "how weather correlates
  // to GPU temperatures" use case). Run a real load so the plant works.
  SystemConfig config = frontier_system_config();
  DigitalTwin cold(config);
  cold.set_wetbulb_constant(5.0);
  cold.submit(make_hpl_job(10.0, 4.0 * units::kSecondsPerHour));
  cold.run_until(4.0 * units::kSecondsPerHour);
  DigitalTwin hot(config);
  hot.set_wetbulb_constant(24.0);
  hot.submit(make_hpl_job(10.0, 4.0 * units::kSecondsPerHour));
  hot.run_until(4.0 * units::kSecondsPerHour);
  // In hot weather the plant cannot hold its HTW setpoint: supply and rack
  // coolant run warmer than on the cold day.
  EXPECT_GT(hot.cooling().outputs().pri_supply_t_c,
            cold.cooling().outputs().pri_supply_t_c + 1.0);
  EXPECT_GT(hot.cooling().outputs().cdus[0].sec_supply_t_c,
            cold.cooling().outputs().cdus[0].sec_supply_t_c + 0.5);
}

TEST(DigitalTwinTest, WetbulbSeriesInterpolated) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_series(TimeSeries::uniform(0.0, 60.0, std::vector<double>(61, 12.0)));
  EXPECT_NO_THROW(twin.run_until(600.0));
  EXPECT_THROW(twin.set_wetbulb_series(TimeSeries{}), ConfigError);
}

TEST(DigitalTwinTest, HplStepShowsThermalLag) {
  // Fig. 8's shape: power steps immediately, the primary return
  // temperature follows with a lag of minutes.
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.run_until(1800.0);  // settle at idle
  const double t_before = twin.cooling().outputs().pri_return_t_c;
  twin.submit(make_hpl_job(1805.0, 1800.0));
  twin.run_until(1800.0 + 60.0);  // one minute into the run
  const double p_early = twin.engine().power().system_power_w;
  const double t_early = twin.cooling().outputs().pri_return_t_c;
  EXPECT_GT(p_early, 20.0e6);          // power is already up
  EXPECT_LT(t_early - t_before, 4.0);  // temperature still mid-transient
  twin.run_until(1800.0 + 1500.0);
  const double t_settled = twin.cooling().outputs().pri_return_t_c;
  EXPECT_GT(t_settled, t_before + 3.0);
  EXPECT_GT(t_settled, t_early + 1.0);  // kept rising after the first minute
}

TEST(DigitalTwinTest, ReportMatchesEngine) {
  DigitalTwin twin(frontier_system_config());
  twin.run_until(900.0);
  EXPECT_DOUBLE_EQ(twin.report().avg_power_mw, twin.engine().report().avg_power_mw);
}

/// Regression for the cooling tail flush: a run whose t_end is off the
/// 15 s cooling grid used to leave the plant clock short of sim time,
/// silently dropping the tail heat (the cooling twin of the power-side
/// tail-flush bug). The plant clock must now equal sim time at the end of
/// every run_until, including resumed runs.
TEST(DigitalTwinTest, CoolingClockMatchesSimEndOffGrid) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(16.0);
  twin.submit(make_hpl_job(5.0, 400.0));

  twin.run_until(100.0);  // 100 = 6*15 + 10: off the cooling grid
  EXPECT_NEAR(twin.cooling().time_s(), 100.0, 1e-9);
  // The flush records the partial-step outputs at t_end.
  EXPECT_DOUBLE_EQ(twin.pue_series().times().back(), 100.0);

  // Resume across the next boundary: the first callback covers only the
  // remaining 5 s to the 105 s boundary, never double-stepping.
  twin.run_until(130.0);
  EXPECT_NEAR(twin.cooling().time_s(), 130.0, 1e-9);
  EXPECT_DOUBLE_EQ(twin.pue_series().times().back(), 130.0);

  // On-grid end: the quantum callback already synced the plant and the
  // flush is a no-op (no duplicate series sample).
  twin.run_until(150.0);
  EXPECT_NEAR(twin.cooling().time_s(), 150.0, 1e-9);
  const TimeSeries& pue = twin.pue_series();
  EXPECT_DOUBLE_EQ(pue.times().back(), 150.0);
  ASSERT_GE(pue.size(), 2u);
  EXPECT_LT(pue.times()[pue.size() - 2], 150.0);
}

/// An off-grid tail must contribute its heat: two runs differing only in a
/// 10 s tail beyond the last boundary see different plant states.
TEST(DigitalTwinTest, OffGridTailHeatNotDropped) {
  SystemConfig config = frontier_system_config();
  auto make_loaded_twin = [&config] {
    auto twin = std::make_unique<DigitalTwin>(config);
    twin->set_wetbulb_constant(16.0);
    twin->submit(make_hpl_job(5.0, 2000.0));
    return twin;
  };
  const auto on_grid = make_loaded_twin();
  on_grid->run_until(900.0);
  const auto with_tail = make_loaded_twin();
  with_tail->run_until(910.0);
  EXPECT_NEAR(on_grid->cooling().time_s(), 900.0, 1e-9);
  EXPECT_NEAR(with_tail->cooling().time_s(), 910.0, 1e-9);
  // Mid-HPL the loops are heating: 10 extra seconds of heat moves the
  // secondary return temperature.
  EXPECT_NE(with_tail->cooling().outputs().cdus[0].sec_return_t_c,
            on_grid->cooling().outputs().cdus[0].sec_return_t_c);
}

/// The engine callback and the recorder point into the twin, so a copied or
/// moved twin would step through a dangling pointer.
TEST(DigitalTwinTest, NeitherCopyableNorMovable) {
  EXPECT_FALSE(std::is_copy_constructible_v<DigitalTwin>);
  EXPECT_FALSE(std::is_copy_assignable_v<DigitalTwin>);
  EXPECT_FALSE(std::is_move_constructible_v<DigitalTwin>);
  EXPECT_FALSE(std::is_move_assignable_v<DigitalTwin>);
}

/// Every series a coupled twin records: the engine's four, then the plant
/// and per-CDU series.
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

void expect_same_series(const std::vector<const TimeSeries*>& a,
                        const std::vector<const TimeSeries*>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i]->times(), b[i]->times())) << "series " << i << " times";
    EXPECT_TRUE(same_bits(a[i]->values(), b[i]->values())) << "series " << i << " values";
  }
}

/// A wet-bulb batch whose third timestamp goes backwards is rejected whole:
/// the twin then runs exactly like one that never saw the batch, whether
/// the batch would have extended a series or started one.
TEST(DigitalTwinTest, RejectedWetbulbBatchLeavesTwinUnchanged) {
  const SystemConfig config = frontier_system_config();
  const std::vector<double> bad_t = {120.0, 180.0, 150.0};
  const std::vector<double> bad_v = {30.0, 30.0, 30.0};
  for (const bool seeded : {true, false}) {
    auto run = [&](bool offer_bad_batch) {
      auto twin = std::make_unique<DigitalTwin>(config);
      twin->set_wetbulb_constant(16.0);
      if (seeded) twin->append_wetbulb_samples({0.0, 60.0}, {12.0, 12.0});
      if (offer_bad_batch) {
        EXPECT_THROW(twin->append_wetbulb_samples(bad_t, bad_v), ConfigError);
      }
      twin->submit(make_hpl_job(5.0, 1200.0));
      twin->run_until(240.0);
      return twin;
    };
    const auto offered = run(true);
    const auto clean = run(false);
    SCOPED_TRACE(seeded ? "extending a series" : "starting a series");
    expect_same_series(recorded_series(*offered), recorded_series(*clean));
  }
}

/// The twin's coupling as it ran before the recorder staged rows and the
/// twin stepped the plant directly: a bare engine, the cooling FMU driven
/// through set_real / set_by_name, and one push_back per series per quantum.
class FmuCoupling {
 public:
  FmuCoupling(const SystemConfig& config, const TimeSeries& wetbulb)
      : config_(config),
        engine_(config),
        fmu_(config),
        wetbulb_(wetbulb),
        cdu_(static_cast<std::size_t>(config.cdu_count)),
        cdu_power_(static_cast<std::size_t>(config.cdu_count)) {
    fmu_.plant().reset(DigitalTwinOptions{}.ambient_c);
    engine_.set_cooling_callback([this](RapsEngine&, double now_s) { on_quantum(now_s); });
  }
  FmuCoupling(const FmuCoupling&) = delete;
  FmuCoupling& operator=(const FmuCoupling&) = delete;

  void submit_all(std::vector<JobRecord> jobs) { engine_.submit_all(std::move(jobs)); }
  void run_until(double t_end_s) {
    engine_.run_until(t_end_s);
    on_quantum(engine_.now_s());
  }

  [[nodiscard]] std::vector<const TimeSeries*> recorded_series() const {
    std::vector<const TimeSeries*> all = {&engine_.power_series_mw(), &engine_.loss_series_mw()};
    all.insert(all.end(), {&engine_.utilization_series(), &engine_.eta_series(), &pue_});
    all.insert(all.end(), {&htws_, &pri_return_, &pri_dp_, &cooling_eff_});
    for (const CduSeries& cdu : cdu_) {
      for (const TimeSeries* s : {&cdu.pri_flow_gpm, &cdu.sec_flow_gpm, &cdu.return_temp_c,
                                  &cdu.supply_temp_c, &cdu.pump_power_w}) {
        all.push_back(s);
      }
    }
    for (const TimeSeries& s : cdu_power_) all.push_back(&s);
    return all;
  }
  [[nodiscard]] Report report() const { return engine_.report(); }

 private:
  void on_quantum(double now_s) {
    const double dt = now_s - synced_s_;
    if (dt <= 1e-9) return;
    const std::vector<double>& cdu_wall = engine_.power_model().cdu_wall_power_w();
    std::vector<double> heat(cdu_wall.size());
    for (std::size_t i = 0; i < cdu_wall.size(); ++i) {
      heat[i] = cdu_wall[i] * config_.cooling.cooling_efficiency;
    }
    const double p_system = engine_.power().system_power_w;
    for (std::size_t i = 0; i < heat.size(); ++i) {
      fmu_.set_real(static_cast<ValueRef>(i), heat[i]);
    }
    fmu_.set_by_name("wetbulb_c", wetbulb_.at(now_s));
    fmu_.set_by_name("system_power_w", p_system);
    fmu_.do_step(now_s, dt);
    synced_s_ = now_s;

    const PlantOutputs& out = fmu_.outputs();
    pue_.push_back(now_s, out.pue);
    htws_.push_back(now_s, out.pri_supply_t_c);
    pri_return_.push_back(now_s, out.pri_return_t_c);
    pri_dp_.push_back(now_s, out.pri_dp_pa);
    double total_heat = 0.0;
    for (const double h : heat) total_heat += h;
    cooling_eff_.push_back(now_s, p_system > 0.0 ? total_heat / p_system : 0.0);
    for (std::size_t i = 0; i < cdu_.size(); ++i) {
      const CduOutputs& c = out.cdus[i];
      cdu_[i].pri_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.pri_flow_m3s));
      cdu_[i].sec_flow_gpm.push_back(now_s, units::gpm_from_m3s(c.sec_flow_m3s));
      cdu_[i].return_temp_c.push_back(now_s, c.pri_return_t_c);
      cdu_[i].supply_temp_c.push_back(now_s, c.sec_supply_t_c);
      cdu_[i].pump_power_w.push_back(now_s, c.pump_power_w);
      cdu_power_[i].push_back(now_s, cdu_wall[i]);
    }
  }

  const SystemConfig& config_;
  RapsEngine engine_;
  CoolingFmu fmu_;
  const TimeSeries& wetbulb_;
  double synced_s_ = 0.0;
  TimeSeries pue_;
  TimeSeries htws_;
  TimeSeries pri_return_;
  TimeSeries pri_dp_;
  TimeSeries cooling_eff_;
  std::vector<CduSeries> cdu_;
  std::vector<TimeSeries> cdu_power_;
};

/// The block-staged recorder and the direct plant binding change no bit:
/// the twin equals the per-sample FMU coupling on every sample of all 159
/// series and on the report. The two runs record 67 and 68 quanta (135 in
/// all, not a multiple of the 64-row block) and both end off the 15 s
/// cooling grid, so full-block and partial-block flushes both occur.
TEST(DigitalTwinTest, RecorderMatchesPerSampleFmuCoupling) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(81));
  std::vector<JobRecord> jobs = gen.generate(0.0, 2007.0);
  jobs.push_back(make_hpl_job(300.0, 900.0));
  std::vector<double> wetbulb_c(40);
  for (std::size_t i = 0; i < wetbulb_c.size(); ++i) {
    wetbulb_c[i] = 14.0 + 0.25 * static_cast<double>(i % 7);
  }
  const TimeSeries wetbulb = TimeSeries::uniform(0.0, 60.0, wetbulb_c);

  DigitalTwin twin(config);
  twin.set_wetbulb_series(wetbulb);
  twin.submit_all(jobs);
  FmuCoupling reference(config, wetbulb);
  reference.submit_all(jobs);
  for (const double t_end : {1000.0, 2007.0}) {
    twin.run_until(t_end);
    reference.run_until(t_end);
    expect_same_series(recorded_series(twin), reference.recorded_series());
  }
  EXPECT_EQ(twin.pue_series().size(), 135u);
  const Report a = twin.report();
  const Report b = reference.report();
  EXPECT_EQ(a.total_energy_mwh, b.total_energy_mwh);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
}

/// A 1 h coupled twin whose plant runs the given evaluation paths, set
/// through cooling() after construction. The run ends off the 15 s cooling
/// grid, so the partial plant step is covered.
std::unique_ptr<DigitalTwin> run_coupled_hour(const SystemConfig& config,
                                              HydraulicsEval hydraulics, ThermalEval thermal) {
  WorkloadGenerator gen(config.workload, config, Rng(17));
  std::vector<JobRecord> jobs = gen.generate(0.0, 3000.0);
  jobs.push_back(make_hpl_job(600.0, 1500.0));
  auto twin = std::make_unique<DigitalTwin>(config);
  twin->cooling().set_hydraulics_eval(hydraulics);
  twin->cooling().set_thermal_eval(thermal);
  twin->set_wetbulb_constant(16.0);
  twin->submit_all(std::move(jobs));
  twin->run_until(3607.0);
  return twin;
}

/// The same report and all 159 series, bit for bit.
void expect_same_twin(const DigitalTwin& fast, const DigitalTwin& ref) {
  expect_same_series(recorded_series(fast), recorded_series(ref));
  EXPECT_EQ(recorded_series(fast).size(), 159u);
  const Report a = fast.report();
  const Report b = ref.report();
  for (const double Report::*field :
       {&Report::duration_s, &Report::avg_wait_s, &Report::makespan_s,
        &Report::throughput_jobs_per_hour, &Report::avg_power_mw, &Report::min_power_mw,
        &Report::max_power_mw, &Report::total_energy_mwh, &Report::avg_loss_mw,
        &Report::max_loss_mw, &Report::loss_fraction, &Report::avg_eta_system,
        &Report::avg_utilization, &Report::avg_arrival_s, &Report::avg_nodes_per_job,
        &Report::avg_runtime_min, &Report::carbon_tons, &Report::energy_cost_usd}) {
    EXPECT_TRUE(same_bits({a.*field}, {b.*field})) << a.*field << " vs " << b.*field;
  }
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
}

/// The hydraulics reference is selected on the plant itself: a twin whose
/// plant re-solves every network every step records the same report and
/// all 159 series, bit for bit, as a default twin.
TEST(DigitalTwinTest, PlantAlwaysSolveMatchesDefaultTwin) {
  const SystemConfig config = frontier_system_config();
  const auto fast = run_coupled_hour(config, HydraulicsEval::kDedup, ThermalEval::kBatched);
  const auto ref = run_coupled_hour(config, HydraulicsEval::kAlwaysSolve, ThermalEval::kBatched);
  expect_same_twin(*fast, *ref);
  // The reference really ran: every step re-solved all 27 networks (the
  // construction-time reset ran before the switch).
  const long long networks = config.cdu_count + 2;
  EXPECT_LT(fast->cooling().hydraulics_stats().solves_performed,
            networks * fast->cooling().step_count());
  EXPECT_GE(ref->cooling().hydraulics_stats().solves_performed,
            networks * ref->cooling().step_count());
}

/// The thermal reference is selected on the plant itself: a twin whose
/// plant runs the scalar HX kernel records the same report and all 159
/// series, bit for bit, as a default twin.
TEST(DigitalTwinTest, PlantScalarThermalMatchesDefaultTwin) {
  const SystemConfig config = frontier_system_config();
  const auto fast = run_coupled_hour(config, HydraulicsEval::kDedup, ThermalEval::kBatched);
  const auto ref = run_coupled_hour(config, HydraulicsEval::kDedup, ThermalEval::kScalar);
  expect_same_twin(*fast, *ref);
  // The reference really ran: no HX went through the batched kernel.
  EXPECT_GT(fast->cooling().thermal_stats().hx_evaluated, 0);
  EXPECT_EQ(ref->cooling().thermal_stats().hx_evaluated, 0);
}

/// The plant rejects a non-finite wet bulb at its first step, whichever
/// boundary condition the twin feeds it.
TEST(DigitalTwinTest, NanWetbulbConstantRejectedByPlant) {
  DigitalTwin twin(frontier_system_config());
  twin.set_wetbulb_constant(std::numeric_limits<double>::quiet_NaN());
  try {
    twin.run_until(600.0);
    ADD_FAILURE() << "a NaN wet bulb ran";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("wetbulb_c"), std::string::npos) << e.what();
  }
  EXPECT_EQ(twin.cooling().step_count(), 0);
  EXPECT_TRUE(twin.pue_series().empty());
}

constexpr double kFailingRunEnd = 6.0 * units::kSecondsPerHour;
constexpr double kFailureAt = 3.0 * units::kSecondsPerHour;

/// A twin advanced toward 6 h in calls of `call_s` until one throws; returns
/// the twin and the error's message (empty when nothing threw).
std::pair<std::unique_ptr<DigitalTwin>, std::string> run_until_failure(
    const SystemConfig& config, const std::vector<JobRecord>& jobs, const TimeSeries& wetbulb,
    double call_s) {
  auto twin = std::make_unique<DigitalTwin>(config);
  twin->set_wetbulb_series(wetbulb);
  twin->submit_all(jobs);
  try {
    for (double t = call_s; t <= kFailingRunEnd; t += call_s) twin->run_until(t);
  } catch (const ConfigError& e) {
    return {std::move(twin), e.what()};
  }
  return {std::move(twin), std::string()};
}

/// The plant, its counters and its recorded series, bit for bit.
void expect_same_plant(const DigitalTwin& a, const DigitalTwin& b) {
  const CoolingPlantModel& pa = a.cooling();
  const CoolingPlantModel& pb = b.cooling();
  EXPECT_EQ(pa.step_count(), pb.step_count());
  EXPECT_TRUE(same_bits({pa.time_s()}, {pb.time_s()}));
  EXPECT_TRUE(same_bits({pa.outputs().pue, pa.outputs().pri_supply_t_c},
                        {pb.outputs().pue, pb.outputs().pri_supply_t_c}));
  EXPECT_EQ(pa.hydraulics_stats().solves_performed, pb.hydraulics_stats().solves_performed);
  EXPECT_EQ(pa.hydraulics_stats().solves_reused(), pb.hydraulics_stats().solves_reused());
  EXPECT_EQ(pa.thermal_stats().hx_evaluated, pb.thermal_stats().hx_evaluated);
  // The plant and coupled series follow the engine's four.
  std::vector<const TimeSeries*> sa = recorded_series(a);
  std::vector<const TimeSeries*> sb = recorded_series(b);
  sa.erase(sa.begin(), sa.begin() + 4);
  sb.erase(sb.begin(), sb.begin() + 4);
  expect_same_series(sa, sb);
}

/// A 6 h coupled run whose engine fails at 3 h: a job naming an unknown
/// partition arrives. In one call (1440 quanta) the plant steps on a worker
/// behind the engine; in 15-minute calls (60 quanta each) it steps inline.
/// Both throw the engine's error, and the pipelined twin's plant finishes
/// every quantum captured before it, so the twins match in full.
TEST(DigitalTwinTest, EngineFailureKeepsWhatAnInlineRunKeeps) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(23));
  std::vector<JobRecord> jobs = gen.generate(0.0, kFailingRunEnd);
  JobRecord stray = make_hpl_job(kFailureAt, 600.0, 64);
  stray.partition = "no-such-partition";
  jobs.push_back(stray);
  const TimeSeries wetbulb = TimeSeries::uniform(0.0, 60.0, std::vector<double>(400, 16.0));

  auto [pipelined, pipelined_error] = run_until_failure(config, jobs, wetbulb, kFailingRunEnd);
  auto [inline_twin, inline_error] = run_until_failure(config, jobs, wetbulb, 900.0);
  EXPECT_NE(pipelined_error.find("unknown partition"), std::string::npos) << pipelined_error;
  EXPECT_EQ(pipelined_error, inline_error);
  EXPECT_EQ(pipelined->engine().now_s(), kFailureAt);
  EXPECT_EQ(pipelined->cooling().step_count(), 719);
  expect_same_plant(*pipelined, *inline_twin);
  expect_same_twin(*pipelined, *inline_twin);
}

/// A 6 h coupled run whose plant fails at 3 h: the wet bulb has a NaN
/// sample there, which the plant rejects at the first quantum that reads
/// it. Both paths throw the plant's error and keep the same plant and
/// coupled series; the pipelined engine may have run ahead of the plant.
TEST(DigitalTwinTest, PlantFailureKeepsThePlantOfAnInlineRun) {
  const SystemConfig config = frontier_system_config();
  WorkloadGenerator gen(config.workload, config, Rng(29));
  const std::vector<JobRecord> jobs = gen.generate(0.0, kFailingRunEnd);
  std::vector<double> wetbulb_c(400, 16.0);
  wetbulb_c[static_cast<std::size_t>(kFailureAt / 60.0)] = std::numeric_limits<double>::quiet_NaN();
  const TimeSeries wetbulb = TimeSeries::uniform(0.0, 60.0, wetbulb_c);

  auto [pipelined, pipelined_error] = run_until_failure(config, jobs, wetbulb, kFailingRunEnd);
  auto [inline_twin, inline_error] = run_until_failure(config, jobs, wetbulb, 900.0);
  EXPECT_NE(pipelined_error.find("wetbulb_c"), std::string::npos) << pipelined_error;
  EXPECT_EQ(pipelined_error, inline_error);
  // The interval before the NaN sample interpolates to NaN from its start
  // (a zero weight times NaN), so the quantum at 10740 s is the first
  // rejected and 715 quanta complete.
  EXPECT_EQ(inline_twin->cooling().step_count(), 715);
  EXPECT_EQ(inline_twin->pue_series().times().back(), kFailureAt - 75.0);
  EXPECT_GE(pipelined->engine().now_s(), inline_twin->engine().now_s());
  expect_same_plant(*pipelined, *inline_twin);
}

}  // namespace
}  // namespace exadigit
