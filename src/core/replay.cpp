#include "core/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/statistics.hpp"
#include "common/units.hpp"

namespace exadigit {

SeriesScore score_series(const TimeSeries& predicted, const TimeSeries& measured,
                         double dt_s) {
  require(!predicted.empty() && !measured.empty(), "scoring requires non-empty series");
  const double t0 = std::max(predicted.start_time(), measured.start_time());
  const double t1 = std::min(predicted.end_time(), measured.end_time());
  require(t1 > t0, "series do not overlap in time");
  // Sample count on the [t0, t1] grid. Plain truncation drops the final
  // sample whenever FP noise lands (t1-t0)/dt a few ulp below an integer
  // (e.g. 0.3/0.1 = 2.9999999999999996), so snap to the nearest integer
  // when within a relative tolerance and truncate otherwise.
  const double span = (t1 - t0) / dt_s;
  const double nearest = std::nearbyint(span);
  const double tol = 1e-9 * std::max(1.0, std::abs(span));
  const double whole = std::abs(span - nearest) <= tol ? nearest : std::floor(span);
  const std::size_t n = static_cast<std::size_t>(whole) + 1;
  const TimeSeries p = predicted.resample(t0, dt_s, n);
  const TimeSeries m = measured.resample(t0, dt_s, n);
  SeriesScore s;
  s.rmse = rmse(p.values(), m.values());
  s.mae = mae(p.values(), m.values());
  s.mape_pct = mape(p.values(), m.values());
  s.pearson = pearson(p.values(), m.values());
  return s;
}

namespace {

/// validate_cooling's scores start this long after the dataset does: the
/// paper's model is initialized from plant state, ours from rest, so the
/// spin-up transient is not a modeling error.
constexpr double kCoolingSpinUpS = units::kSecondsPerHour;

}  // namespace

InMemoryChunkSource system_channel_source(const TelemetryDataset& dataset) {
  // Replay reads only the system channels (measured power and wet bulb), so
  // the one chunk carries copies of just those.
  TelemetryFrame system;
  for (const SystemChannelDef& def : system_channel_defs()) {
    const TimeSeries& series = dataset.*(def.member);
    if (!series.empty()) {
      system.adopt_channel(kSystemTag, def.name, series.times(), series.values());
    }
  }
  return InMemoryChunkSource(DatasetFrame{DatasetHeader::copy_from(dataset), std::move(system)},
                             0.0);
}

PowerReplayResult replay_power(const SystemConfig& config, const TelemetryDataset& dataset,
                               bool with_cooling) {
  InMemoryChunkSource source = system_channel_source(dataset);
  return replay_power(config, source, with_cooling);
}

PowerReplayResult replay_power(const SystemConfig& config, ChunkedTelemetrySource& source,
                               bool with_cooling) {
  const DatasetHeader& header = source.header();
  // The engine and the power model index every job trace by the config's
  // trace quantum, so a dataset recorded at another one would replay its
  // traces at the wrong speed.
  if (header.trace_quantum_s != config.simulation.trace_quantum_s) {
    throw ConfigError("dataset recorded at a trace quantum of " +
                      format_double(header.trace_quantum_s) +
                      " s cannot replay under simulation.trace_quantum_s = " +
                      format_double(config.simulation.trace_quantum_s) + " s");
  }
  DigitalTwinOptions options;
  options.enable_cooling = with_cooling;
  options.start_time_s = header.start_time_s;
  DigitalTwin twin(config, options);
  const double t_end = header.end_time_s();

  const auto sim_begin = std::chrono::steady_clock::now();
  twin.submit_all(header.jobs);
  TimeSeries measured_mw;
  // Replay reads the system channels only (measured power and wet bulb);
  // a source may leave every other channel of a window undecoded.
  TelemetryChunk chunk;
  std::vector<ChannelKey> system_channels;
  for (const SystemChannelDef& def : system_channel_defs()) {
    system_channels.push_back({kSystemTag, def.name});
  }
  chunk.select(std::move(system_channels));
  // Replay's only mid-run telemetry dependency is the wet bulb (measured
  // power is scored after the run); the safe simulation horizon while the
  // stream is live is therefore the last ingested wet-bulb sample — past
  // it the series would clamp where an uninterrupted run interpolates.
  double wetbulb_horizon = header.start_time_s;
  // exadigit-hot-begin(chunked-replay)
  while (source.next(chunk)) {
    const TelemetryChannel* wb = chunk.frame().find(kSystemTag, "wetbulb_c");
    if (wb != nullptr && !wb->times.empty()) {
      twin.append_wetbulb_samples(wb->times, wb->values);
      wetbulb_horizon = wb->times.back();
    }
    if (const TelemetryChannel* mp = chunk.frame().find(kSystemTag, "measured_power_w")) {
      for (std::size_t i = 0; i < mp->times.size(); ++i) {
        measured_mw.push_back(mp->times[i], units::mw_from_watts(mp->values[i]));
      }
    }
    chunk.release();
    const double target = twin.engine().last_quantum_fire_s(std::min(wetbulb_horizon, t_end));
    if (target > twin.engine().now_s()) twin.run_until(target);
  }
  // exadigit-hot-end
  // End-of-stream: the wet-bulb series is complete, so running to the end
  // now clamps exactly where one uninterrupted run would.
  twin.run_until(t_end);
  PowerReplayResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        sim_begin)
                  .count();
  r.predicted_power_mw = twin.engine().power_series_mw();
  r.measured_power_mw = std::move(measured_mw);
  r.eta_system = twin.engine().eta_series();
  r.utilization = twin.engine().utilization_series();
  if (with_cooling) {
    r.cooling_eff = twin.cooling_efficiency_series();
    r.pue = twin.pue_series();
  }
  // A jobs-only source (an SWF trace) carries no measured power to score
  // against.
  if (r.measured_power_mw.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    r.power_score = SeriesScore{nan, nan, nan, nan};
  } else {
    r.power_score = score_series(r.predicted_power_mw, r.measured_power_mw,
                                 config.simulation.cooling_quantum_s);
  }
  r.report = twin.report();
  return r;
}

PowerReplayResult replay_power(const SystemConfig& config, DatasetFrame&& data,
                               bool with_cooling) {
  // The whole frame moves into a single chunk, so as before no channel
  // array is ever copied on this path.
  InMemoryChunkSource source(std::move(data), 0.0);
  return replay_power(config, source, with_cooling);
}

bool cooling_validation_scores(const SystemConfig& config, const TelemetryDataset& dataset) {
  // validate_cooling's last step ends at t0 + steps * dt.
  const double dt = config.simulation.cooling_quantum_s;
  const double steps = std::floor(dataset.duration_s / dt);
  return dataset.start_time_s + steps * dt > dataset.start_time_s + kCoolingSpinUpS;
}

CoolingValidationResult validate_cooling(const SystemConfig& config,
                                         const TelemetryDataset& dataset) {
  dataset.validate();
  require(static_cast<int>(dataset.cdus.size()) == config.cdu_count,
          "dataset CDU count mismatch");
  if (!cooling_validation_scores(config, dataset)) {
    throw ConfigError("cooling validation needs more than 1 h of telemetry: it discards the "
                      "first 1 h (" + format_double(kCoolingSpinUpS) +
                      " s), the plant's spin-up from rest, and the dataset spans " +
                      format_double(dataset.duration_s) + " s");
  }
  CoolingFmu fmu(config);
  fmu.setup_experiment(dataset.start_time_s);

  const double dt = config.simulation.cooling_quantum_s;
  const double t0 = dataset.start_time_s;
  const std::size_t steps = static_cast<std::size_t>(dataset.duration_s / dt);

  TimeSeries pred_flow, pred_ret, pred_press, pred_pue;
  TimeSeries meas_flow, meas_ret;
  const int n_cdus = config.cdu_count;

  for (std::size_t k = 0; k < steps; ++k) {
    const double t = t0 + static_cast<double>(k + 1) * dt;
    // Inputs strictly from telemetry: per-CDU rack power -> heat, wet bulb,
    // and measured P_system for the PUE denominator.
    for (int i = 0; i < n_cdus; ++i) {
      const double rack_w =
          dataset.cdus[static_cast<std::size_t>(i)].rack_power_w.at(t, SampleHold::kPrevious);
      fmu.set_real(static_cast<ValueRef>(i), config.plant_heat_w(rack_w));
    }
    fmu.set_by_name("wetbulb_c", dataset.wetbulb_c.at(t));
    fmu.set_by_name("system_power_w",
                    dataset.measured_system_power_w.at(t, SampleHold::kPrevious));
    fmu.do_step(t, dt);

    // Fleet-average CDU channels (paper Fig. 7 plots the CDU ensemble).
    const PlantOutputs& out = fmu.outputs();
    double flow = 0.0;
    double ret = 0.0;
    for (const auto& c : out.cdus) {
      flow += units::gpm_from_m3s(c.pri_flow_m3s);
      ret += c.pri_return_t_c;
    }
    pred_flow.push_back(t, flow / n_cdus);
    pred_ret.push_back(t, ret / n_cdus);
    pred_press.push_back(t, out.pri_dp_pa);
    pred_pue.push_back(t, out.pue);

    double mflow = 0.0;
    double mret = 0.0;
    for (int i = 0; i < n_cdus; ++i) {
      const auto& c = dataset.cdus[static_cast<std::size_t>(i)];
      mflow += c.htw_flow_gpm.at(t);
      mret += c.return_temp_c.at(t);
    }
    meas_flow.push_back(t, mflow / n_cdus);
    meas_ret.push_back(t, mret / n_cdus);
  }

  CoolingValidationResult r;
  r.predicted_flow_gpm = std::move(pred_flow);
  r.measured_flow_gpm = std::move(meas_flow);
  r.predicted_return_c = std::move(pred_ret);
  r.measured_return_c = std::move(meas_ret);
  r.predicted_pressure_pa = std::move(pred_press);
  r.measured_pressure_pa = dataset.facility.htw_supply_pressure_pa;
  r.predicted_pue = std::move(pred_pue);
  r.measured_pue = dataset.facility.pue;

  // Discard the spin-up from scoring. The predicted series run past it (see
  // the check above); a measured channel that ends earlier is kept whole.
  const double score_from = t0 + kCoolingSpinUpS;
  auto trimmed = [&](const TimeSeries& s) {
    return s.end_time() > score_from ? s.slice(score_from, s.end_time()) : s;
  };
  r.cdu_pri_flow = score_series(trimmed(r.predicted_flow_gpm), trimmed(r.measured_flow_gpm), dt);
  r.cdu_return_temp =
      score_series(trimmed(r.predicted_return_c), trimmed(r.measured_return_c), dt);
  r.htw_supply_pressure = score_series(trimmed(r.predicted_pressure_pa),
                                       trimmed(r.measured_pressure_pa), dt);
  r.pue = score_series(trimmed(r.predicted_pue), trimmed(r.measured_pue), dt);

  // Paper Fig. 7(d): model PUE within 1.4 % of telemetry PUE.
  const TimeSeries tp = trimmed(r.predicted_pue);
  double worst = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    const double m = r.measured_pue.at(tp.time(i));
    if (m > 0.0) worst = std::max(worst, std::abs(tp.value(i) - m) / m);
  }
  r.pue_max_rel_error = worst;
  return r;
}

}  // namespace exadigit
