#pragma once

/// @file digital_twin.hpp
/// The ExaDigiT digital twin: RAPS co-simulated with the cooling plant.
///
/// This is the paper's integration layer (Fig. 1): the RAPS engine advances
/// event-to-event on a 1 s grid (see raps/engine.hpp), and every 15 s
/// cooling quantum it hands the per-CDU heat load, the ambient wet bulb,
/// and P_system to the cooling plant, steps it, and records the coupled
/// series (PUE, HTWS temperature, cooling efficiency eta_cooling =
/// H / P_system, per-CDU flows and temperatures). Cooling can be disabled
/// for power-only sweeps — the paper's "three minutes instead of nine"
/// replay path.
///
/// Plant binding: the twin owns a CoolingPlantModel and one CoolingInputs.
/// Each quantum writes the per-CDU heat into the inputs in place, sets the
/// wet bulb and P_system, and calls CoolingPlantModel::step; cooling()
/// returns the plant. CoolingFmu is the same plant behind the FMI-shaped
/// interface (value references, set_real / do_step) for callers that want
/// that seam, such as validate_cooling; the twin does not route its inputs
/// through it.
///
/// Recording: each quantum's values of the 155 coupled channels (5 plant
/// series, then 6 per CDU for the 25 Frontier CDUs) are staged as one row
/// of a fixed block of kStageRows rows. A full block, and the partial block
/// at the end of every run_until, is appended into the series column by
/// column (TimeSeries::append). run_until reserves each series for the
/// quanta it will add, so the series are complete, and grown linearly in
/// the horizon, whenever run_until has returned. With collect_series off
/// nothing is staged. The engine's four event-sampled series keep their
/// own time axis (raps/engine.hpp).
///
/// Energy accounting: every run_until(t_end) closes the engine's energy and
/// utilization integrals exactly at t_end (the final partial interval is
/// flushed even off the quantum/tick grid), so report().total_energy_mwh
/// always matches the rectangle integral of the recorded power series.
///
/// Cooling-clock alignment: each quantum callback steps the plant by the
/// simulated time elapsed since the previous plant step (normally exactly
/// one cooling quantum), and run_until(t_end) flushes a final partial plant
/// step when t_end falls off the cooling grid. The plant clock therefore
/// always equals the simulation clock at the end of every run_until — the
/// tail heat between the last quantum boundary and t_end is no longer
/// dropped (the cooling-side twin of the power-model tail-flush fix).
///
/// A twin runs serially on its caller's thread. Each 15 s quantum holds too
/// little work to shard (25 CDU solves and a few dirty racks); independent
/// twins run side by side through ScenarioRunner instead. The engine's
/// cooling callback and the recorder's channel table point into the twin,
/// so a twin can be neither copied nor moved; hold it in a unique_ptr to
/// hand it around.

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/time_series.hpp"
#include "cooling/plant.hpp"
#include "fmi/cooling_fmu.hpp"  // the FMI facade, for callers beside a twin
#include "raps/engine.hpp"
#include "raps/workload.hpp"

namespace exadigit {

/// Construction options for a twin instance.
struct DigitalTwinOptions {
  bool enable_cooling = true;
  bool collect_series = true;
  double start_time_s = 0.0;
  /// Initial plant temperature seed AND the default constant wet bulb.
  /// Precedence for the ambient boundary condition, highest first:
  ///   1. set_wetbulb_series()  — a telemetry/synthetic series;
  ///   2. set_wetbulb_constant() — an explicit constant;
  ///   3. this field.
  double ambient_c = 20.0;
};

/// Per-CDU series recorded during a coupled run.
struct CduSeries {
  TimeSeries pri_flow_gpm;     ///< station 12 primary flow
  TimeSeries sec_flow_gpm;     ///< station 14 secondary flow
  TimeSeries return_temp_c;    ///< station 12 primary return temperature
  TimeSeries supply_temp_c;    ///< station 15 secondary supply temperature
  TimeSeries pump_power_w;
};

/// The coupled supercomputer + central-energy-plant twin.
class DigitalTwin {
 public:
  explicit DigitalTwin(const SystemConfig& config);
  DigitalTwin(const SystemConfig& config, const DigitalTwinOptions& options);
  DigitalTwin(const DigitalTwin&) = delete;
  DigitalTwin& operator=(const DigitalTwin&) = delete;
  DigitalTwin(DigitalTwin&&) = delete;
  DigitalTwin& operator=(DigitalTwin&&) = delete;

  /// Ambient boundary condition: a wet-bulb series (60 s telemetry) or a
  /// constant; the series wins when both are set. Until either setter is
  /// called the constant is seeded from DigitalTwinOptions::ambient_c.
  void set_wetbulb_series(TimeSeries series);
  void set_wetbulb_constant(double wetbulb_c);

  /// Incremental twin of set_wetbulb_series for chunked replay and live
  /// ingest: appends time-ordered samples to the wet-bulb series, creating
  /// it on the first non-empty batch. Timestamps must strictly increase
  /// across batches. The whole batch is checked first: a rejected batch
  /// leaves the ambient boundary condition unchanged. The caller must not
  /// run the twin past the last appended sample time if it intends to
  /// append more (the series clamps at its end, so later samples could no
  /// longer affect earlier steps).
  void append_wetbulb_samples(const std::vector<double>& times,
                              const std::vector<double>& values);

  void submit(JobRecord job) { engine_.submit(std::move(job)); }
  void submit_all(std::vector<JobRecord> jobs) { engine_.submit_all(std::move(jobs)); }

  /// Advances the coupled simulation.
  void run_until(double t_end_s);

  [[nodiscard]] RapsEngine& engine() { return engine_; }
  [[nodiscard]] const RapsEngine& engine() const { return engine_; }
  /// The cooling plant; throws when cooling is disabled.
  [[nodiscard]] CoolingPlantModel& cooling();
  [[nodiscard]] const CoolingPlantModel& cooling() const;
  [[nodiscard]] bool cooling_enabled() const { return plant_ != nullptr; }

  // --- coupled series (cooling quantum resolution) -----------------------
  [[nodiscard]] const TimeSeries& pue_series() const { return pue_series_; }
  [[nodiscard]] const TimeSeries& htws_temp_series() const { return htws_series_; }
  [[nodiscard]] const TimeSeries& pri_return_temp_series() const { return pri_return_series_; }
  [[nodiscard]] const TimeSeries& htw_supply_pressure_series() const { return pri_dp_series_; }
  [[nodiscard]] const TimeSeries& cooling_efficiency_series() const {
    return cooling_eff_series_;
  }
  /// One entry per CDU when cooling is on; the series stay empty with
  /// collect_series off.
  [[nodiscard]] const std::vector<CduSeries>& cdu_series() const { return cdu_series_; }
  /// Wall power per CDU over time (cooling-model input channel).
  [[nodiscard]] const std::vector<TimeSeries>& cdu_rack_power_series() const {
    return cdu_power_series_;
  }

  [[nodiscard]] Report report() const { return engine_.report(); }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  /// Quanta staged before they are appended to the series: 64 rows of the
  /// 155 Frontier channels is about 80 KB. A constant, not an option.
  static constexpr std::size_t kStageRows = 64;

  SystemConfig config_;
  RapsEngine engine_;
  std::unique_ptr<CoolingPlantModel> plant_;
  /// The plant's boundary conditions, rewritten in place every quantum.
  CoolingInputs inputs_;
  /// Simulated time the plant has been stepped to; callbacks and the
  /// run_until tail flush step the plant by (now - this), keeping the plant
  /// clock equal to the simulation clock even off the cooling grid.
  double cooling_synced_s_ = 0.0;
  std::optional<TimeSeries> wetbulb_series_;
  /// Seeded from DigitalTwinOptions::ambient_c at construction (see the
  /// precedence note on that field); never read before then.
  double wetbulb_constant_ = 20.0;
  bool collect_series_;

  TimeSeries pue_series_;
  TimeSeries htws_series_;
  TimeSeries pri_return_series_;
  TimeSeries pri_dp_series_;
  TimeSeries cooling_eff_series_;
  std::vector<CduSeries> cdu_series_;
  std::vector<TimeSeries> cdu_power_series_;

  /// The recorded series in stage-row order; empty unless cooling and
  /// collect_series are both on.
  std::vector<TimeSeries*> channels_;
  /// Row-major stage: row r holds every channel's value at stage_times_[r].
  std::vector<double> stage_;
  std::array<double, kStageRows> stage_times_{};
  std::size_t staged_rows_ = 0;

  void on_cooling_quantum(double now_s);
  /// Appends the staged rows to the series and empties the stage.
  void flush_stage();
  /// Reserves every recorded series for the quanta a run to t_end_s adds.
  void reserve_series(double t_end_s);
  [[nodiscard]] double wetbulb_at(double t_s) const;
};

}  // namespace exadigit
