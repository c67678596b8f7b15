/// Coupled cooling perf trajectory: the paper Fig. 9 day (24 h Frontier
/// telemetry replay with an HPL campaign) run through the *coupled* twin —
/// RAPS + the cooling plant every 15 s quantum, with the plant's loops
/// evaluated in closed form (cooling/network.hpp).
///
/// The coupled path is the paper's value proposition (what-if cooling
/// studies and setpoint optimization at exascale); this bench records the
/// trajectory of that hot path. It exits non-zero when a repeat run
/// diverges from the first, or when any node of any loop leaves more than
/// 1e-12 of its loop flow unbalanced on any step.
///
/// Each of the twin's two stages is also timed alone. The engine stage
/// (wall_ms_engine) is the twin's RapsEngine over the day with a cooling
/// callback that copies each quantum's plant inputs (time, P_system, wet
/// bulb, per-CDU wall power) into rows reserved beforehand, as the twin's
/// ring does. The plant stage (wall_ms_plant) steps a fresh
/// CoolingPlantModel over those captured rows; its final outputs must equal
/// the twin's plant, so the number times the same work the twin's plant
/// stage does.
///
/// `--json <path>` emits BENCH_coupled24h.json: wall_ms, wall_ms_engine,
/// wall_ms_plant, sim_rate, plant_steps, solves_performed (loops
/// evaluated), max_mass_residual_rel, recording_bytes_per_sample,
/// energy_mwh, pue.
///
/// EXADIGIT_BENCH_HOURS shrinks the replayed window for smoke runs;
/// EXADIGIT_BENCH_REPS sets the repetitions (min wall time is reported —
/// see perf_json.hpp).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "core/physical_twin.hpp"
#include "perf_json.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

using namespace exadigit;

namespace {

/// The largest node mass residual, relative to the loop flow, that a
/// closed-form loop evaluation may leave.
constexpr double kMaxMassResidualRel = 1e-12;

struct CoupledRun {
  double wall_ms = 0.0;
  Report report;
  double pue_mean = 0.0;
  long long plant_steps = 0;
  PlantOutputs plant_outputs;  ///< after the last step
  CoolingPlantModel::HydraulicsStats stats;
  double recording_bytes_per_sample = 0.0;
};

/// Bytes the twin's 155 coupled channels hold per recorded sample: the
/// capacity of each distinct time vector, counted once, plus every
/// channel's value capacity, over the channels' summed sizes. One shared
/// axis puts it just above 8; a times vector per channel near 16.
double recording_bytes_per_sample(const DigitalTwin& twin) {
  std::vector<const TimeSeries*> channels = {
      &twin.pue_series(), &twin.htws_temp_series(), &twin.pri_return_temp_series(),
      &twin.htw_supply_pressure_series(), &twin.cooling_efficiency_series()};
  for (const CduSeries& cdu : twin.cdu_series()) {
    channels.insert(channels.end(), {&cdu.pri_flow_gpm, &cdu.sec_flow_gpm, &cdu.return_temp_c,
                                     &cdu.supply_temp_c, &cdu.pump_power_w});
  }
  for (const TimeSeries& s : twin.cdu_rack_power_series()) channels.push_back(&s);
  std::set<const double*> axes;
  std::size_t bytes = 0;
  std::size_t samples = 0;
  for (const TimeSeries* s : channels) {
    if (axes.insert(s->times().data()).second) bytes += s->times().capacity() * sizeof(double);
    bytes += s->values().capacity() * sizeof(double);
    samples += s->size();
  }
  return samples > 0 ? static_cast<double>(bytes) / static_cast<double>(samples) : 0.0;
}

/// One coupled replay (RAPS + cooling plant).
CoupledRun time_coupled_replay_once(const SystemConfig& config, const TelemetryDataset& dataset) {
  DigitalTwinOptions options;
  options.enable_cooling = true;
  options.start_time_s = dataset.start_time_s;
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
  r.plant_steps = twin.cooling().step_count();
  r.plant_outputs = twin.cooling().outputs();
  r.stats = twin.cooling().hydraulics_stats();
  r.recording_bytes_per_sample = recording_bytes_per_sample(twin);
  return r;
}

/// Runs the replay `reps` times and reports the minimum wall time. Every
/// rep must reproduce the first rep's physics exactly (same process, same
/// inputs): a mismatch means nondeterminism and aborts the bench.
CoupledRun time_coupled_replay(const SystemConfig& config, const TelemetryDataset& dataset,
                               int reps) {
  CoupledRun best = time_coupled_replay_once(config, dataset);
  for (int rep = 1; rep < reps; ++rep) {
    const CoupledRun r = time_coupled_replay_once(config, dataset);
    if (r.report.total_energy_mwh != best.report.total_energy_mwh ||
        r.pue_mean != best.pue_mean || r.plant_steps != best.plant_steps) {
      std::fprintf(stderr, "FAIL: repeat run diverged (rep %d)\n", rep);
      std::exit(1);
    }
    if (r.wall_ms < best.wall_ms) best.wall_ms = r.wall_ms;
  }
  return best;
}

/// The replay's plant inputs, one row per quantum in the twin's ring
/// layout: the time, P_system and the wet bulb, then each CDU's wall power.
struct PlantInputs {
  std::size_t stride = 0;
  std::vector<double> rows;
};

struct EngineStageRun {
  double wall_ms = 0.0;
  PlantInputs inputs;
};

/// The engine stage alone: the twin's engine over the replay, capturing
/// each cooling quantum as DigitalTwin::on_cooling_quantum does, plus the
/// twin's closing flush at the engine's end time. The rows are reserved
/// before the clock starts, so a capture copies and never allocates.
EngineStageRun time_engine_stage_once(const SystemConfig& config,
                                      const TelemetryDataset& dataset) {
  const double ambient_c = DigitalTwinOptions{}.ambient_c;
  RapsEngine engine(config, RapsEngine::Options{dataset.start_time_s});
  EngineStageRun r;
  PlantInputs& in = r.inputs;
  in.stride = 3 + static_cast<std::size_t>(config.cdu_count);
  const double quanta = std::ceil(dataset.duration_s / config.simulation.cooling_quantum_s);
  in.rows.reserve((static_cast<std::size_t>(quanta) + 2) * in.stride);
  auto capture = [&](const RapsEngine& e, double now_s) {
    in.rows.push_back(now_s);
    in.rows.push_back(e.power().system_power_w);
    in.rows.push_back(dataset.wetbulb_c.empty() ? ambient_c : dataset.wetbulb_c.at(now_s));
    const std::vector<double>& wall = e.power_model().cdu_wall_power_w();
    in.rows.insert(in.rows.end(), wall.begin(), wall.end());
  };
  engine.set_cooling_callback([&](RapsEngine& e, double now_s) { capture(e, now_s); });
  const auto t0 = std::chrono::steady_clock::now();
  engine.submit_all(dataset.jobs);
  engine.run_until(dataset.start_time_s + dataset.duration_s);
  capture(engine, engine.now_s());
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct PlantStageRun {
  double wall_ms = 0.0;
  long long steps = 0;
  PlantOutputs outputs;  ///< after the last step
};

/// Steps a fresh plant over the captured rows as the twin's plant stage
/// does: a step covers the time since the last one, a repeat of the same
/// time is skipped, and each CDU's heat is its wall power times the
/// cooling efficiency.
PlantStageRun time_plant_stage_once(const SystemConfig& config, const PlantInputs& inputs,
                                    double start_s) {
  CoolingPlantModel plant(config);
  plant.reset(DigitalTwinOptions{}.ambient_c);
  CoolingInputs in;
  in.cdu_heat_w.resize(inputs.stride - 3);
  double synced_s = start_s;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t at = 0; at + inputs.stride <= inputs.rows.size(); at += inputs.stride) {
    const double* row = inputs.rows.data() + at;
    const double dt = row[0] - synced_s;
    if (dt <= 1e-9) continue;
    for (std::size_t i = 0; i < in.cdu_heat_w.size(); ++i) {
      in.cdu_heat_w[i] = row[3 + i] * config.cooling.cooling_efficiency;
    }
    in.system_power_w = row[1];
    in.wetbulb_c = row[2];
    plant.step(in, dt);
    synced_s = row[0];
  }
  PlantStageRun r;
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.steps = plant.step_count();
  r.outputs = plant.outputs();
  return r;
}

/// True when the plant stepped alone ended where the twin's plant did, to
/// the bit: same step count, PUE and HTW supply, and each CDU's return
/// temperature and HEX duty. Any difference in the captured inputs shows
/// in these.
bool same_plant_end(const PlantStageRun& alone, const CoupledRun& twin) {
  const PlantOutputs& a = alone.outputs;
  const PlantOutputs& b = twin.plant_outputs;
  if (alone.steps != twin.plant_steps || a.pue != b.pue ||
      a.pri_supply_t_c != b.pri_supply_t_c || a.cdus.size() != b.cdus.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.cdus.size(); ++i) {
    if (a.cdus[i].sec_return_t_c != b.cdus[i].sec_return_t_c ||
        a.cdus[i].hex_duty_w != b.cdus[i].hex_duty_w) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!bench::parse_json_flag(argc, argv, "bench_coupled_replay24h", &json_path)) return 2;

  const double hours = bench::env_double("EXADIGIT_BENCH_HOURS", 24.0);
  const double duration = hours * units::kSecondsPerHour;
  const SystemConfig spec = frontier_system_config();

  std::printf("=== Coupled cooling replay: %.0f h Frontier day ===\n\n", hours);

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

  const CoupledRun run = time_coupled_replay(spec, dataset, reps);

  // Each stage alone, min of the same reps; every engine rep must capture
  // the first rep's inputs.
  const EngineStageRun engine_stage = time_engine_stage_once(spec, dataset);
  double engine_ms = engine_stage.wall_ms;
  for (int rep = 1; rep < reps; ++rep) {
    const EngineStageRun again = time_engine_stage_once(spec, dataset);
    if (again.inputs.rows != engine_stage.inputs.rows) {
      std::fprintf(stderr, "FAIL: a repeat of the engine stage captured other inputs\n");
      return 1;
    }
    engine_ms = std::min(engine_ms, again.wall_ms);
  }
  double plant_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const PlantStageRun stage =
        time_plant_stage_once(spec, engine_stage.inputs, dataset.start_time_s);
    if (!same_plant_end(stage, run)) {
      std::fprintf(stderr, "FAIL: the plant stepped alone ended apart from the twin's plant\n");
      return 1;
    }
    if (rep == 0 || stage.wall_ms < plant_ms) plant_ms = stage.wall_ms;
  }
  const double sim_rate = run.wall_ms > 0.0 ? duration / (run.wall_ms / 1000.0) : 0.0;
  const double residual = run.stats.max_mass_residual_rel;

  AsciiTable t({"Coupled replay", "value"});
  t.add_row({"wall (ms)", AsciiTable::num(run.wall_ms, 1)});
  t.add_row({"engine stage alone (ms)", AsciiTable::num(engine_ms, 1)});
  t.add_row({"plant stage alone (ms)", AsciiTable::num(plant_ms, 1)});
  t.add_row({"plant steps", AsciiTable::num(static_cast<double>(run.plant_steps), 0)});
  t.add_row({"loops evaluated",
             AsciiTable::num(static_cast<double>(run.stats.solves_performed), 0)});
  t.add_row({"energy (MWh)", AsciiTable::num(run.report.total_energy_mwh, 3)});
  t.add_row({"mean PUE", AsciiTable::num(run.pue_mean, 5)});
  std::printf("%s\n", t.render().c_str());

  std::printf("coupled replay: %.1f ms; %.0f sim-s/wall-s\n", run.wall_ms, sim_rate);
  std::printf("worst node mass residual: %.3g of the loop flow\n", residual);
  std::printf("coupled recording: %.3f bytes per channel sample\n",
              run.recording_bytes_per_sample);
  if (!(residual <= kMaxMassResidualRel)) {
    std::fprintf(stderr, "FAIL: a loop left %.3g of its flow unbalanced at a node (> %g)\n",
                 residual, kMaxMassResidualRel);
    return 1;
  }

  if (!json_path.empty()) {
    Json out;
    out["bench"] = Json(std::string("coupled24h"));
    out["hours"] = Json(hours);
    out["reps"] = Json(static_cast<std::int64_t>(reps));
    out["sim_seconds"] = Json(duration);
    out["jobs"] = Json(static_cast<std::int64_t>(dataset.jobs.size()));
    out["wall_ms"] = Json(run.wall_ms);
    out["wall_ms_engine"] = Json(engine_ms);
    out["wall_ms_plant"] = Json(plant_ms);
    out["sim_rate"] = Json(sim_rate);  // simulated seconds per wall second
    out["plant_steps"] = Json(static_cast<std::int64_t>(run.plant_steps));
    out["solves_performed"] = Json(static_cast<std::int64_t>(run.stats.solves_performed));
    out["max_mass_residual_rel"] = Json(residual);
    out["recording_bytes_per_sample"] = Json(run.recording_bytes_per_sample);
    out["energy_mwh"] = Json(run.report.total_energy_mwh);
    out["pue"] = Json(run.pue_mean);
    if (!bench::write_perf_json(json_path, out)) return 1;
    std::printf("JSON -> %s\n", json_path.c_str());
  }
  return 0;
}
