/// coupled_day: the Fig. 9 Frontier day replayed through DigitalTwin with
/// cooling on and serial defaults, one replay at a time (closed loop, one
/// caller). One operation is one full replay: construct the twin, set the
/// wet bulb, submit the recorded jobs, run to the end of the day.
///
/// The traced run replaces the twin by a coupling harness owned by the
/// benchmark — a bare RapsEngine, a CoolingFmu, and a cooling callback that
/// mirrors DigitalTwin::on_cooling_quantum — so spans can sit between the
/// engine, the FMI calls, and the plant step. The harness must equal the
/// twin bit for bit. Series recording is measured as the difference between
/// twin replays with collect_series on and off.

#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "config/system_config.hpp"
#include "core/digital_twin.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

/// 200 to 340 replays in a 30 s run: p90 keeps at least twenty samples
/// beyond it down to 150 ms per replay.
constexpr double kTailPct = 90.0;

std::unique_ptr<DigitalTwin> replay_day(const SystemConfig& config, const TelemetryDataset& day,
                                        bool collect_series) {
  DigitalTwinOptions options;
  options.enable_cooling = true;
  options.collect_series = collect_series;
  options.start_time_s = day.start_time_s;
  auto twin = std::make_unique<DigitalTwin>(config, options);
  if (!day.wetbulb_c.empty()) twin->set_wetbulb_series(day.wetbulb_c);
  twin->submit_all(day.jobs);
  twin->run_until(day.start_time_s + day.duration_s);
  return twin;
}

/// Every series a twin records, engine and plant side.
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

CoupledOutput output_of(const DigitalTwin& twin) {
  return CoupledOutput{twin.report(), twin.pue_series(), twin.htws_temp_series()};
}

/// Repeat check: the report and every recorded series equal the reference.
bool same_replay_as(const DigitalTwin& twin, const DigitalTwin& reference) {
  if (!same_report(twin.report(), reference.report())) return false;
  const std::vector<const TimeSeries*> a = recorded_series(twin);
  const std::vector<const TimeSeries*> b = recorded_series(reference);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_series(*a[i], *b[i])) return false;
  }
  return a.size() == b.size();
}

/// The benchmark's own coupling of RAPS and the cooling FMU, mirroring
/// DigitalTwin::on_cooling_quantum step for step. It records only the PUE
/// and HTWS series the bit-identity check compares; the engine records its
/// own series as in the twin (the report's max loss reads them).
class CouplingHarness {
 public:
  CouplingHarness(const SystemConfig& config, const TelemetryDataset& day, SpanLog* log)
      : config_(config),
        day_(day),
        log_(log),
        engine_(config, RapsEngine::Options{day.start_time_s, true,
                                            RapsEngine::PowerEval::kIncremental}),
        fmu_(config),
        synced_s_(day.start_time_s) {
    fmu_.plant().reset(DigitalTwinOptions{}.ambient_c);
    engine_.set_cooling_callback([this](RapsEngine&, double now_s) {
      ++quanta_;
      on_quantum(now_s);
    });
  }
  CouplingHarness(const CouplingHarness&) = delete;
  CouplingHarness& operator=(const CouplingHarness&) = delete;

  void run() {
    {
      ScopedSpan span(log_, "raps.submit_all");
      engine_.submit_all(day_.jobs);
    }
    {
      ScopedSpan span(log_, "raps.run_until");
      engine_.run_until(day_.start_time_s + day_.duration_s);
    }
    on_quantum(engine_.now_s());  // DigitalTwin::run_until's tail flush
  }

  [[nodiscard]] CoupledOutput output() const { return CoupledOutput{engine_.report(), pue_, htws_}; }
  [[nodiscard]] const CoolingPlantModel& plant() const { return fmu_.plant(); }
  [[nodiscard]] long long quanta() const { return quanta_; }

 private:
  void on_quantum(double now_s) {
    const double dt = now_s - synced_s_;
    if (dt <= 1e-9) return;
    ScopedSpan span(log_, "core.quantum");
    const std::vector<double>& cdu_wall = engine_.power_model().cdu_wall_power_w();
    heat_.resize(cdu_wall.size());
    for (std::size_t i = 0; i < cdu_wall.size(); ++i) {
      heat_[i] = cdu_wall[i] * config_.cooling.cooling_efficiency;
    }
    const double p_system = engine_.power().system_power_w;
    const double wetbulb = day_.wetbulb_c.empty() ? DigitalTwinOptions{}.ambient_c
                                                  : day_.wetbulb_c.at(now_s);
    {
      ScopedSpan set(log_, "fmi.set");
      for (std::size_t i = 0; i < heat_.size(); ++i) {
        fmu_.set_real(static_cast<ValueRef>(i), heat_[i]);
      }
      fmu_.set_by_name("wetbulb_c", wetbulb);
      fmu_.set_by_name("system_power_w", p_system);
    }
    {
      ScopedSpan step(log_, "cooling.step");
      fmu_.do_step(now_s, dt);
    }
    synced_s_ = now_s;
    pue_.push_back(now_s, fmu_.outputs().pue);
    htws_.push_back(now_s, fmu_.outputs().pri_supply_t_c);
  }

  const SystemConfig& config_;
  const TelemetryDataset& day_;
  SpanLog* log_;
  RapsEngine engine_;
  CoolingFmu fmu_;
  double synced_s_;
  long long quanta_ = 0;
  std::vector<double> heat_;
  TimeSeries pue_;
  TimeSeries htws_;
};

struct DaySetup {
  SystemConfig config;
  TelemetryDataset day;
  std::unique_ptr<DigitalTwin> reference;
};

}  // namespace

RunResult run_coupled_day(const RunOptions& options) {
  DaySetup setup;
  const double setup_s = median_setup_s(options.setup_reps, [&] {
    setup.reference.reset();
    setup.config = frontier_system_config();
    setup.day = make_coupled_day(setup.config, options.seed);
    setup.reference = replay_day(setup.config, setup.day, true);
  });
  const SystemConfig& config = setup.config;
  const TelemetryDataset& day = setup.day;
  const DigitalTwin& reference = *setup.reference;
  {
    char line[160];
    std::snprintf(line, sizeof line, "inputs: coupled_day seed %llu, %zu jobs, digest %016llx",
                  static_cast<unsigned long long>(options.seed), day.jobs.size(),
                  static_cast<unsigned long long>(digest(day.jobs) ^ digest(day.wetbulb_c)));
    note(line);
  }

  RunResult result;
  // One untraced replay, timed and checked against the set-up reference.
  std::vector<double> op_ms;
  std::vector<double> op_rss_mb;
  trim_heap();
  auto untraced_op = [&] {
    const bool rss_ok = reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<DigitalTwin> twin = replay_day(config, day, true);
    op_ms.push_back(ms_since(t0));
    if (rss_ok) op_rss_mb.push_back(peak_rss_mb());
    result.count(same_replay_as(*twin, reference));
  };

  if (!options.trace) {
    run_for(options.seconds, untraced_op);
    // The harness, untraced, once: it must equal the twin bit for bit.
    CouplingHarness harness(config, day, nullptr);
    harness.run();
    result.count(same_coupled(harness.output(), output_of(reference)));
    add_replay_metrics(result, setup_s, op_ms, kTailPct, day.duration_s, op_rss_mb);
    return result;
  }

  // Traced run: each iteration runs one untraced replay (the baseline for
  // the layer sum), one traced operation (the harness, then the twin with
  // series on and off), and the harness once more untraced (the baseline for
  // trace.overhead_pct). Interleaving keeps machine drift out of the
  // comparisons.
  SpanLog log;
  std::int64_t request = 0;
  long long quanta = 0;
  long long series_samples = 0;
  CoolingPlantModel::HydraulicsStats hydraulics;
  CoolingPlantModel::ThermalStats thermal;
  long long steps = 0;
  int jobs_completed = 0;
  std::vector<double> harness_ms;  // untraced harness runs
  run_for(options.seconds, [&] {
    untraced_op();
    log.begin_request(request++);
    CoupledOutput harness_out;
    {
      ScopedSpan op(&log, "op.harness");
      CouplingHarness harness(config, day, &log);
      harness.run();
      harness_out = harness.output();
      quanta = harness.quanta();
      hydraulics = harness.plant().hydraulics_stats();
      thermal = harness.plant().thermal_stats();
      steps = harness.plant().step_count();
    }
    std::unique_ptr<DigitalTwin> on;
    std::unique_ptr<DigitalTwin> off;
    {
      ScopedSpan span(&log, "core.run_until.series_on");
      on = replay_day(config, day, true);
    }
    {
      ScopedSpan span(&log, "core.run_until.series_off");
      off = replay_day(config, day, false);
    }
    series_samples = 0;
    for (const TimeSeries* s : recorded_series(*on)) {
      series_samples += static_cast<long long>(s->size());
    }
    jobs_completed = harness_out.report.jobs_completed;
    result.count(same_coupled(harness_out, output_of(*on)) && same_replay_as(*on, reference) &&
                 off->report().total_energy_mwh == on->report().total_energy_mwh);
    const Clock::time_point t0 = Clock::now();
    CouplingHarness untraced(config, day, nullptr);
    untraced.run();
    harness_ms.push_back(ms_since(t0));
    result.count(same_coupled(untraced.output(), harness_out));
  });
  const double baseline_ms = median(op_ms);

  auto med = [&log](const char* name, bool self) {
    return median(values_of(log.per_request_ms(name, self)));
  };
  std::map<std::int64_t, double> raps = log.per_request_ms("raps.run_until", true);
  for (const auto& [req, ms] : log.per_request_ms("raps.submit_all", true)) raps[req] += ms;
  const double series_ms =
      med("core.run_until.series_on", false) - med("core.run_until.series_off", false);
  const double traced_harness_ms = med("op.harness", false);
  const long long reused = hydraulics.solves_reused();
  std::map<std::string, double> layers = {
      {"raps.self_ms", median(values_of(raps))},
      {"raps.quanta", static_cast<double>(quanta)},
      {"raps.jobs_completed", static_cast<double>(jobs_completed)},
      {"fmi.set_ms", med("fmi.set", false)},
      {"cooling.step_ms", med("cooling.step", false)},
      {"cooling.steps", static_cast<double>(steps)},
      {"cooling.solves_performed", static_cast<double>(hydraulics.solves_performed)},
      {"cooling.solves_reused", static_cast<double>(reused)},
      {"cooling.hx_evaluated", static_cast<double>(thermal.hx_evaluated)},
      {"cooling.reuse_ratio",
       static_cast<double>(reused) / static_cast<double>(hydraulics.solves_performed + reused)},
      {"core.series_ms", series_ms},
      {"core.series_samples", static_cast<double>(series_samples)},
      {"trace.overhead_pct", 100.0 * (traced_harness_ms / median(harness_ms) - 1.0)},
  };
  add_layer_metrics(result, layers);
  {
    const double sum = layers["raps.self_ms"] + layers["fmi.set_ms"] +
                       layers["cooling.step_ms"] + series_ms;
    char line[320];
    std::snprintf(line, sizeof line,
                  "layers: raps %.2f + fmi.set %.2f + cooling.step %.2f + series %.2f = %.2f ms; "
                  "harness %.2f ms traced, %.2f ms untraced, callback glue %.2f ms; untraced "
                  "op_ms_p50 %.2f ms (%zu baseline ops)",
                  layers["raps.self_ms"], layers["fmi.set_ms"], layers["cooling.step_ms"],
                  series_ms, sum, traced_harness_ms, median(harness_ms),
                  med("core.quantum", true), baseline_ms, op_ms.size());
    note(line);
  }
  export_trace(options, {&log});
  return result;
}

}  // namespace perfbench
