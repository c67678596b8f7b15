/// Coupled cooling perf trajectory: the paper Fig. 9 day (24 h Frontier
/// telemetry replay with an HPL campaign) run through the *coupled* twin —
/// RAPS + the cooling FMU every 15 s quantum — under three configurations:
///
///   fast    — the defaults: event-driven engine, incremental power model,
///             deduplicated/workspace-reused hydraulics (kDedup);
///   ref     — same engine/power, HydraulicsEval::kAlwaysSolve with the
///             original allocate-per-solve call pattern: isolates the
///             hydraulics dedup, and cross-checks it bit-identically;
///   legacy  — the preserved pre-overhaul configuration end to end: fixed
///             tick loop + full per-sample power recompute + always-solve
///             hydraulics (the seed's coupled hot path; like PR 3's
///             speedup_vs_legacy it still shares fixes that are inseparable
///             from the common code, e.g. the dropped redundant
///             post-convergence evaluate, so it understates the true gain).
///
/// The coupled path is the paper's value proposition (what-if cooling
/// studies and setpoint optimization at exascale); this bench records the
/// trajectory of that hot path.
///
/// `--json <path>` emits BENCH_coupled24h.json: wall_ms (fast path),
/// wall_ms_always_solve, wall_ms_legacy, speedup_vs_always_solve,
/// speedup_vs_legacy, sim_rate, plant_steps, solves_performed,
/// solves_reused, energy_mwh, pue.
///
/// EXADIGIT_BENCH_HOURS shrinks the replayed window for smoke runs;
/// EXADIGIT_BENCH_REPS sets the repetitions per configuration (min wall
/// time is reported — see perf_json.hpp).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/table.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/digital_twin.hpp"
#include "core/physical_twin.hpp"
#include "perf_json.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

using namespace exadigit;

namespace {

struct CoupledRun {
  double wall_ms = 0.0;
  Report report;
  double pue_mean = 0.0;
  long long plant_steps = 0;
  CoolingPlantModel::HydraulicsStats stats;
};

/// Coupled replay (RAPS + cooling FMU) under one full configuration.
CoupledRun time_coupled_replay_once(const SystemConfig& base, const TelemetryDataset& dataset,
                                    HydraulicsEval eval, EngineMode engine,
                                    RapsEngine::PowerEval power_eval) {
  SystemConfig config = base;
  config.cooling.hydraulics = eval;
  config.simulation.engine = engine;
  DigitalTwinOptions options;
  options.enable_cooling = true;
  options.start_time_s = dataset.start_time_s;
  options.power_eval = power_eval;
  DigitalTwin twin(config, options);
  if (!dataset.wetbulb_c.empty()) twin.set_wetbulb_series(dataset.wetbulb_c);
  const auto t0 = std::chrono::steady_clock::now();
  twin.submit_all(dataset.jobs);
  twin.run_until(dataset.start_time_s + dataset.duration_s);
  CoupledRun r;
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.report = twin.report();
  r.pue_mean = twin.pue_series().time_weighted_mean();
  r.plant_steps = twin.cooling().plant().step_count();
  r.stats = twin.cooling().plant().hydraulics_stats();
  return r;
}

/// Runs a configuration `reps` times and reports the minimum wall time.
/// Every rep must reproduce the first rep's physics exactly (same process,
/// same inputs): a mismatch means nondeterminism and aborts the bench.
CoupledRun time_coupled_replay(const SystemConfig& base, const TelemetryDataset& dataset,
                               HydraulicsEval eval, EngineMode engine,
                               RapsEngine::PowerEval power_eval, int reps) {
  CoupledRun best = time_coupled_replay_once(base, dataset, eval, engine, power_eval);
  for (int rep = 1; rep < reps; ++rep) {
    const CoupledRun r = time_coupled_replay_once(base, dataset, eval, engine, power_eval);
    if (r.report.total_energy_mwh != best.report.total_energy_mwh ||
        r.pue_mean != best.pue_mean || r.plant_steps != best.plant_steps) {
      std::fprintf(stderr, "FAIL: repeat run diverged (rep %d)\n", rep);
      std::exit(1);
    }
    if (r.wall_ms < best.wall_ms) best.wall_ms = r.wall_ms;
  }
  return best;
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!bench::parse_json_flag(argc, argv, "bench_coupled_replay24h", &json_path)) return 2;

  const double hours = bench::env_double("EXADIGIT_BENCH_HOURS", 24.0);
  const double duration = hours * units::kSecondsPerHour;
  const SystemConfig spec = frontier_system_config();

  std::printf("=== Coupled cooling replay: %.0f h Frontier day, dedup vs always-solve ===\n\n",
              hours);

  // The same replayed day as bench_fig9_replay24h: heavy synthetic mix plus
  // four back-to-back 9216-node HPL runs.
  WorkloadConfig day = spec.workload;
  day.mean_arrival_s = 70.0;
  WorkloadGenerator gen(day, spec, Rng(20240118));
  std::vector<JobRecord> jobs = gen.generate(0.0, duration);
  const double hpl_start = 0.55 * duration;
  for (int k = 0; k < 4; ++k) {
    JobRecord hpl = make_hpl_job(hpl_start + k * 2400.0, 2100.0);
    hpl.id = 900000 + k;
    jobs.push_back(hpl);
  }

  SyntheticWeather weather(WeatherConfig{}, Rng(18));
  TimeSeries wetbulb_raw = weather.generate(17.0 * units::kSecondsPerDay, duration + 120.0);
  TimeSeries wetbulb;
  for (std::size_t i = 0; i < wetbulb_raw.size(); ++i) {
    wetbulb.push_back(static_cast<double>(i) * 60.0, wetbulb_raw.value(i));
  }

  SyntheticPhysicalTwin physical(spec, PhysicalTwinOptions{});
  const TelemetryDataset dataset = physical.record(jobs, wetbulb, duration);
  std::printf("replaying %zu recorded jobs through the coupled twin\n\n",
              dataset.jobs.size());

  const int reps = bench::bench_reps();

  const CoupledRun fast =
      time_coupled_replay(spec, dataset, HydraulicsEval::kDedup, EngineMode::kEventDriven,
                          RapsEngine::PowerEval::kIncremental, reps);
  const CoupledRun ref =
      time_coupled_replay(spec, dataset, HydraulicsEval::kAlwaysSolve,
                          EngineMode::kEventDriven, RapsEngine::PowerEval::kIncremental, reps);
  const CoupledRun legacy =
      time_coupled_replay(spec, dataset, HydraulicsEval::kAlwaysSolve, EngineMode::kTickLoop,
                          RapsEngine::PowerEval::kFullRecompute, reps);

  const double sim_rate = fast.wall_ms > 0.0 ? duration / (fast.wall_ms / 1000.0) : 0.0;
  const double speedup_ref = fast.wall_ms > 0.0 ? ref.wall_ms / fast.wall_ms : 0.0;
  const double speedup_legacy = fast.wall_ms > 0.0 ? legacy.wall_ms / fast.wall_ms : 0.0;
  const long long total = fast.stats.solves_performed + fast.stats.solves_reused();

  AsciiTable t({"Coupled replay", "dedup (fast)", "always_solve (ref)", "legacy"});
  t.add_row({"wall (ms)", AsciiTable::num(fast.wall_ms, 0), AsciiTable::num(ref.wall_ms, 0),
             AsciiTable::num(legacy.wall_ms, 0)});
  t.add_row({"plant steps", AsciiTable::num(static_cast<double>(fast.plant_steps), 0),
             AsciiTable::num(static_cast<double>(ref.plant_steps), 0),
             AsciiTable::num(static_cast<double>(legacy.plant_steps), 0)});
  t.add_row({"solves performed",
             AsciiTable::num(static_cast<double>(fast.stats.solves_performed), 0),
             AsciiTable::num(static_cast<double>(ref.stats.solves_performed), 0),
             AsciiTable::num(static_cast<double>(legacy.stats.solves_performed), 0)});
  t.add_row({"solves reused",
             AsciiTable::num(static_cast<double>(fast.stats.solves_reused()), 0),
             AsciiTable::num(static_cast<double>(ref.stats.solves_reused()), 0),
             AsciiTable::num(static_cast<double>(legacy.stats.solves_reused()), 0)});
  t.add_row({"energy (MWh)", AsciiTable::num(fast.report.total_energy_mwh, 3),
             AsciiTable::num(ref.report.total_energy_mwh, 3),
             AsciiTable::num(legacy.report.total_energy_mwh, 3)});
  t.add_row({"mean PUE", AsciiTable::num(fast.pue_mean, 5), AsciiTable::num(ref.pue_mean, 5),
             AsciiTable::num(legacy.pue_mean, 5)});
  std::printf("%s\n", t.render().c_str());

  const double energy_rel = rel_diff(fast.report.total_energy_mwh,
                                     ref.report.total_energy_mwh);
  const double pue_rel = rel_diff(fast.pue_mean, ref.pue_mean);
  std::printf("coupled replay: %.0f ms fast vs %.0f ms always-solve (%.1fx) vs %.0f ms "
              "legacy (%.1fx); %.0f sim-s/wall-s\n",
              fast.wall_ms, ref.wall_ms, speedup_ref, legacy.wall_ms, speedup_legacy,
              sim_rate);
  std::printf("dedup reuse: %lld of %lld solves reused (%.0f %%)\n",
              fast.stats.solves_reused(), total,
              total > 0 ? 100.0 * fast.stats.solves_reused() / total : 0.0);
  std::printf("cross-check vs reference: energy rel diff %.2e, PUE rel diff %.2e "
              "(tests assert <= 1e-12 per-field)\n",
              energy_rel, pue_rel);
  if (energy_rel > 1e-12 || pue_rel > 1e-12) {
    std::fprintf(stderr, "FAIL: dedup diverged from always-solve reference\n");
    return 1;
  }

  if (!json_path.empty()) {
    Json out;
    out["bench"] = Json(std::string("coupled24h"));
    out["hours"] = Json(hours);
    out["reps"] = Json(static_cast<std::int64_t>(reps));
    out["sim_seconds"] = Json(duration);
    out["jobs"] = Json(static_cast<std::int64_t>(dataset.jobs.size()));
    out["wall_ms"] = Json(fast.wall_ms);
    out["wall_ms_always_solve"] = Json(ref.wall_ms);
    out["wall_ms_legacy"] = Json(legacy.wall_ms);
    out["speedup_vs_always_solve"] = Json(speedup_ref);
    out["speedup_vs_legacy"] = Json(speedup_legacy);
    out["sim_rate"] = Json(sim_rate);  // simulated seconds per wall second
    out["plant_steps"] = Json(static_cast<std::int64_t>(fast.plant_steps));
    out["solves_performed"] = Json(static_cast<std::int64_t>(fast.stats.solves_performed));
    out["solves_reused"] = Json(static_cast<std::int64_t>(fast.stats.solves_reused()));
    out["energy_mwh"] = Json(fast.report.total_energy_mwh);
    out["pue"] = Json(fast.pue_mean);
    out["hydraulics"] = Json(std::string(hydraulics_eval_name(HydraulicsEval::kDedup)));
    if (!bench::write_perf_json(json_path, out)) return 1;
    std::printf("JSON -> %s\n", json_path.c_str());
  }
  return 0;
}
