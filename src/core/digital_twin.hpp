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
/// Recording: the 155 coupled channels (5 plant series, then 6 per CDU for
/// the 25 Frontier CDUs) are sampled at the same quantum instants, so they
/// share one time axis. A SeriesRecorder (common/series_recorder.hpp) owns
/// the axis and stages each quantum as one row of a fixed block; a full
/// block, and the partial block at the end of every run_until, appends its
/// times to the axis once and each column to its channel. Every coupled
/// series is attached to the recorder: its times() is the shared axis and
/// its values are its own, about 8 bytes per sample where a series that
/// owned its times held 16. A copy of one owns its times, so it keeps its
/// size and bits through later run_until calls and outlives the twin.
/// run_until reserves the axis and every channel for the quanta it will
/// add, so the series are complete, and grown linearly in the horizon,
/// whenever run_until has returned. With collect_series off nothing is
/// recorded. The engine's four event-sampled series keep their own time
/// axis (raps/engine.hpp).
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
/// Two stages: a coupled run_until that adds at least kPipelineMinQuanta
/// quanta overlaps the engine with the plant. RAPS reads no cooling state,
/// so the coupling is one way and the plant can trail the engine:
///   - Engine stage, on the caller's thread: RapsEngine::run_until. The
///     cooling callback only captures the quantum's plant inputs (time,
///     P_system, wet bulb, per-CDU wall power) into a bounded
///     single-producer/single-consumer ring of kRingQuanta quanta, sized
///     from cdu_count at construction.
///   - Plant stage, on one worker thread started and joined inside
///     run_until: it pops the quanta in order and runs the quantum body
///     (the heat, CoolingPlantModel::step, the recorder's stage row).
/// A stage that finds the ring full (engine) or empty (plant) sleeps until
/// the other has moved a batch of quanta, so a 24 h run (5760 quanta)
/// wakes a stage a few dozen times, not once per quantum. Shorter runs,
/// and a run whose worker thread cannot be started, run the same quantum
/// body inline on the caller's thread. Every plant input arrives in the
/// same order with the same values either way, so the two paths record
/// the same bits.
///
/// Failures: run_until throws the first error in simulated order and
/// returns with the worker joined. When the engine throws, the plant first
/// finishes every quantum captured before the failure, so the twin holds
/// exactly what an inline run holds. When the plant throws, the plant and
/// coupled series keep the quanta the plant completed, as inline, but the
/// engine may have run up to kRingQuanta quanta past the failing one: its
/// clock, report and own four series can lie that far ahead.
///
/// Independent twins run side by side through ScenarioRunner; sharding a
/// single quantum loses (README, "Parallelism"). The engine's cooling
/// callback and the recorder's channels point into the twin, so a twin can
/// be neither copied nor moved; hold it in a unique_ptr to hand it around.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/series_recorder.hpp"
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
  ~DigitalTwin();

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

  /// Advances the coupled simulation, in two stages when the run is long
  /// enough (see the file header, including what a failed run keeps).
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
  /// A coupled run that adds fewer quanta steps the plant inline: starting
  /// and joining the worker costs more than the overlap saves there.
  /// Measured on fresh Frontier twins (Release, GCC 12, 4 cores, min of 40
  /// runs, three alternations): at 8 quanta the worker cost +50 %
  /// (0.14-0.17 -> 0.23-0.26 ms), the paths crossed between 32 and 48
  /// quanta, and at 64 the pipelined run led (0.77-0.81 against
  /// 0.79-1.15 ms; medians 1.07-1.17 against 1.21-1.26 ms).
  static constexpr std::size_t kPipelineMinQuanta = 64;
  /// Quanta the engine may run ahead of the plant, about 57 KB of inputs
  /// at 25 CDUs. The engine stage sleeps when the ring is full and resumes
  /// when half of it is free, so a 24 h run (5760 quanta) wakes it at most
  /// about 45 times, and the 128 quanta still queued (about 0.2 ms of plant
  /// work at 1.5 us a step) cover its wake-up latency. The size barely
  /// matters on perfbench's Frontier day: the engine is the slower stage
  /// for the day's first 14 h, so the ring fills only in the HPL hours.
  /// Per-quantum stage costs (seed 7, Release, GCC 12, a shared 4-core
  /// host) bound a two-stage run at 10.93 ms with 256 slots, 11.17 ms with
  /// 128 and 10.82 ms unbounded, so a larger ring would save under 0.2 ms.
  static constexpr std::size_t kRingQuanta = 256;

  class QuantumRing;

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

  /// The coupled channels' time axis and stage; declared before the series
  /// attached to it, so it outlives them.
  SeriesRecorder recorder_;
  TimeSeries pue_series_;
  TimeSeries htws_series_;
  TimeSeries pri_return_series_;
  TimeSeries pri_dp_series_;
  TimeSeries cooling_eff_series_;
  std::vector<CduSeries> cdu_series_;
  std::vector<TimeSeries> cdu_power_series_;

  /// Plant inputs handed from the engine stage to the plant stage; null
  /// when cooling is off.
  std::unique_ptr<QuantumRing> ring_;
  /// True while a plant-stage worker consumes the ring.
  bool pipelined_ = false;
  /// The plant stage's error, read after the worker is joined.
  std::exception_ptr plant_error_;

  /// The engine's cooling callback: captures the quantum's plant inputs and
  /// hands them to the plant stage, or steps the plant on them inline.
  void on_cooling_quantum(double now_s);
  /// The quantum body: steps the plant on one captured quantum and stages
  /// its row.
  void step_plant(const double* quantum);
  /// The plant stage's loop, run on the worker thread.
  void run_plant_stage();
  /// Cooling quanta a run to t_end_s adds (0 when it adds none).
  [[nodiscard]] std::size_t quanta_until(double t_end_s) const;
  [[nodiscard]] double wetbulb_at(double t_s) const;
};

}  // namespace exadigit
