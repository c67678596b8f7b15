#pragma once

/// @file replay.hpp
/// Telemetry replay and V&V scoring (paper Section IV).
///
/// "One of the most effective ways to perform verification and validation
/// studies of the power and cooling models is by replaying system telemetry
/// at multiple levels through the digital twin" (Finding 8). Two replay
/// levels are implemented:
///   - power replay (Fig. 9): jobs replay on their recorded schedule, the
///     predicted P_system is scored against the measured channel;
///   - cooling validation (Fig. 7): the cooling FMU alone is driven by the
///     telemetry heat + wet bulb, and its flows, temperatures, pressures,
///     and PUE are scored against the measured channels.
///
/// These functions are the domain kernels behind the "replay" and
/// "cooling_validation" scenario types in the ScenarioRegistry.

#include "core/digital_twin.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/schema.hpp"
#include "telemetry/store.hpp"

namespace exadigit {

/// Error metrics of one predicted channel vs its measured counterpart.
struct SeriesScore {
  double rmse = 0.0;
  double mae = 0.0;
  double mape_pct = 0.0;
  double pearson = 0.0;
};

/// Scores `predicted` against `measured` on a common uniform grid.
[[nodiscard]] SeriesScore score_series(const TimeSeries& predicted,
                                       const TimeSeries& measured, double dt_s);

/// Result of a power replay (Fig. 9).
struct PowerReplayResult {
  TimeSeries predicted_power_mw;
  TimeSeries measured_power_mw;
  TimeSeries eta_system;       ///< Eq. (1) over time
  TimeSeries cooling_eff;      ///< eta_cooling = H / P_system (with cooling)
  TimeSeries utilization;
  TimeSeries pue;              ///< empty when cooling disabled
  /// Every field NaN when the source carries no measured power.
  SeriesScore power_score;
  Report report;
  /// Wall-clock time of the simulation itself (submit + run_until), for
  /// perf trajectories; excludes dataset preparation and scoring.
  double wall_ms = 0.0;
};

/// Replays a telemetry dataset's jobs through the twin and scores the
/// predicted system power, when the dataset measured it. `with_cooling`
/// enables the coupled plant (the paper's 9-minute path) or skips it
/// (3-minute path). An adapter: the header and copies of the system
/// channels (measured power and wet bulb, the only channels replay reads)
/// go through the chunked overload below as a single InMemoryChunkSource
/// chunk.
[[nodiscard]] PowerReplayResult replay_power(const SystemConfig& config,
                                             const TelemetryDataset& dataset,
                                             bool with_cooling);

/// The replay loop every overload runs: pulls telemetry chunk by chunk off
/// `source` and advances the twin incrementally, so peak telemetry
/// residency is one chunk rather than the whole dataset. The pulled chunk
/// selects the system channels (system_channel_defs()), the only ones
/// replay reads, so a BinChunkSource decodes nothing else. Bit-identical to
/// one uninterrupted run of the twin over the whole span, on the report
/// and on every recorded series sample, for any chunk geometry: between
/// chunks the twin only ever runs to a cooling-quantum fire tick at or
/// before the last ingested wet-bulb sample (replay's only mid-run
/// telemetry dependency), where an intermediate run_until is a pure prefix
/// of the uninterrupted one.
[[nodiscard]] PowerReplayResult replay_power(const SystemConfig& config,
                                             ChunkedTelemetrySource& source,
                                             bool with_cooling);

/// Frame-consuming overload: replays a columnar DatasetFrame (as produced
/// by load_dataset_frame) without copying channel arrays — an adapter that
/// moves the frame into a single-chunk InMemoryChunkSource, so a 183-day
/// load feeds the twin with zero per-sample copies.
[[nodiscard]] PowerReplayResult replay_power(const SystemConfig& config, DatasetFrame&& data,
                                             bool with_cooling);

/// Result of the cooling-model validation (Fig. 7(a-d)).
struct CoolingValidationResult {
  SeriesScore cdu_pri_flow;        ///< station 12 flow, averaged over CDUs
  SeriesScore cdu_return_temp;     ///< station 12 temperature
  SeriesScore htw_supply_pressure; ///< station 10 pressure
  SeriesScore pue;
  double pue_max_rel_error = 0.0;  ///< paper: within 1.4 %
  // Fleet-average series for plotting/benches.
  TimeSeries predicted_flow_gpm;
  TimeSeries measured_flow_gpm;
  TimeSeries predicted_return_c;
  TimeSeries measured_return_c;
  TimeSeries predicted_pressure_pa;
  TimeSeries measured_pressure_pa;
  TimeSeries predicted_pue;
  TimeSeries measured_pue;
};

/// Drives the cooling FMU with the dataset's heat and wet-bulb channels
/// only (paper: "the only inputs to the model is the power supplied to the
/// 25 CDUs ... and the wet-bulb temperature") and scores stations 10/12 and
/// the PUE against telemetry.
///
/// The plant starts from rest, so the scores leave out the first simulated
/// hour. A dataset whose last plant step ends within that hour has nothing
/// to score: it is a ConfigError naming the dataset's span.
[[nodiscard]] CoolingValidationResult validate_cooling(const SystemConfig& config,
                                                       const TelemetryDataset& dataset);

/// Whether validate_cooling has samples to score on `dataset`: its last
/// plant step under `config`'s cooling quantum ends after the discarded
/// first hour.
[[nodiscard]] bool cooling_validation_scores(const SystemConfig& config,
                                             const TelemetryDataset& dataset);

}  // namespace exadigit
