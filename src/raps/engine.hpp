#pragma once

/// @file engine.hpp
/// The RAPS simulation engine (paper Algorithm 1).
///
/// Time lives on a tick_s grid, but the engine is *event-driven*: run_until
/// jumps straight to the next tick where something can happen — the
/// earliest job arrival, the earliest completion, the next cooling-quantum
/// boundary, or the next utilization trace-quantum boundary of a running
/// job (when traces are finer than the cooling quantum). At such a tick:
/// newly arrived jobs join the pending queue, completed jobs release their
/// nodes, a scheduling pass places queued work, and power is re-sampled
/// incrementally (see power_model.hpp). The cooling model callback fires on
/// every cooling-quantum boundary — exactly the paper's RAPS <-> FMU
/// coupling. The legacy fixed-step loop is retained behind
/// SimulationConfig::engine = EngineMode::kTickLoop as the validation
/// reference; both modes produce bit-identical reports and series.
///
/// Energy accounting semantics: power is piecewise-constant between
/// samples, and every run_until(t_end) closes the integrals exactly at
/// t_end — the final partial interval is flushed (and sampled) even when
/// t_end falls off the quantum or tick grid, so report().total_energy_mwh
/// always equals the rectangle integral of power_series_mw().
///
/// Telemetry-replay jobs (fixed_start_time_s >= 0) bypass the queue and
/// start on their recorded schedule.

#include <functional>
#include <vector>

#include "common/time_series.hpp"
#include "raps/allocator.hpp"
#include "raps/power_model.hpp"
#include "raps/report.hpp"
#include "raps/scheduler.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

/// A job currently holding nodes.
struct RunningJob {
  JobRecord record;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  std::vector<int> nodes;
  int power_handle = -1;  ///< RapsPowerModel registration (incremental API)
};

/// Log entry for every job start (used to build replay datasets).
struct JobStartLogEntry {
  JobRecord record;
  double start_time_s = 0.0;
};

/// The resource-allocator-and-power-simulator engine.
class RapsEngine {
 public:
  /// How each power sample is evaluated.
  enum class PowerEval {
    /// Delta-maintained group outputs, dirty-rack re-evaluation (default).
    kIncremental,
    /// Rebuild the full fleet state from idle on every sample — the
    /// original (pre-event-core) hot path, kept for benchmarking the
    /// speedup and for cross-validating the incremental evaluator.
    kFullRecompute,
  };

  struct Options {
    double start_time_s = 0.0;
    /// Record power/loss/utilization series at every quantum (off for
    /// long parameter sweeps that only need the final report).
    bool collect_series = true;
    PowerEval power_eval = PowerEval::kIncremental;
  };

  explicit RapsEngine(const SystemConfig& config);
  RapsEngine(const SystemConfig& config, const Options& options);

  /// Submits a job; its submit time (or fixed start) must not be in the
  /// past. Jobs may be submitted before or during a run. Jobs sharing a
  /// submit (or fixed-start) time enqueue in ascending id order regardless
  /// of submission order.
  void submit(JobRecord job);
  void submit_all(std::vector<JobRecord> jobs);

  /// Cooling co-simulation hook, invoked every cooling quantum with the
  /// engine state updated for the current time.
  void set_cooling_callback(std::function<void(RapsEngine&, double now_s)> callback);

  /// Advances the simulation to `t_end_s` (Algorithm 1 RUNSIMULATION) and
  /// flushes the energy/utilization integrals exactly at `t_end_s`.
  void run_until(double t_end_s);

  // --- observers ---------------------------------------------------------
  [[nodiscard]] double now_s() const { return now_s_; }
  [[nodiscard]] int running_count() const { return static_cast<int>(running_.size()); }
  [[nodiscard]] std::size_t queued_count() const { return scheduler_.queue_depth(); }
  [[nodiscard]] const std::vector<RunningJob>& running_jobs() const { return running_; }
  [[nodiscard]] const RapsPowerModel& power_model() const { return power_; }
  [[nodiscard]] const NodeAllocator& allocator() const { return allocator_; }
  [[nodiscard]] const PowerSample& power() const { return power_.sample(); }
  [[nodiscard]] std::vector<double> cdu_heat_w() const { return power_.cdu_heat_w(); }
  [[nodiscard]] double utilization() const;
  [[nodiscard]] int jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] int jobs_submitted() const { return jobs_submitted_; }
  /// Every job start with its realized start time, in start order.
  [[nodiscard]] const std::vector<JobStartLogEntry>& job_start_log() const {
    return job_start_log_;
  }

  /// Per-quantum series (empty when collect_series is off).
  [[nodiscard]] const TimeSeries& power_series_mw() const { return power_series_; }
  [[nodiscard]] const TimeSeries& loss_series_mw() const { return loss_series_; }
  [[nodiscard]] const TimeSeries& utilization_series() const { return utilization_series_; }
  [[nodiscard]] const TimeSeries& eta_series() const { return eta_series_; }

  /// Paper Section III-B5 end-of-run report for the simulated window.
  [[nodiscard]] Report report() const;

  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  Options options_;
  NodeAllocator allocator_;
  Scheduler scheduler_;
  RapsPowerModel power_;

  double now_s_;
  long long tick_count_ = 0;
  /// Index of the next cooling-quantum boundary (boundaries sit at
  /// next_quantum_ * cooling_quantum_s relative to run_begin_s_). Integer
  /// bookkeeping makes the quantum trigger exact even when the quantum is
  /// not a float multiple of tick_s (the old fmod test drifted there).
  long long next_quantum_ = 1;

  /// Future arrivals sorted descending by time, ties broken by descending
  /// id (pop from the back => ascending time, then ascending id).
  std::vector<JobRecord> future_jobs_;
  bool future_sorted_ = true;
  std::vector<RunningJob> running_;
  std::vector<JobStartLogEntry> job_start_log_;

  std::function<void(RapsEngine&, double)> cooling_callback_;

  // Statistics accumulators.
  int jobs_submitted_ = 0;
  int jobs_completed_ = 0;
  double energy_j_ = 0.0;
  double loss_j_ = 0.0;
  double output_energy_j_ = 0.0;
  double input_energy_j_ = 0.0;
  double utilization_integral_ = 0.0;
  /// Utilization at the last power sample: integrated left-held over each
  /// interval, matching the piecewise-constant power convention (a job's
  /// final interval counts as busy, its pre-start interval as idle).
  double sampled_utilization_ = 0.0;
  double stats_time_s_ = 0.0;
  double min_power_w_ = 0.0;
  double max_power_w_ = 0.0;
  double completed_nodes_sum_ = 0.0;
  double completed_runtime_sum_s_ = 0.0;
  /// System wall power with zero jobs running, captured at construction
  /// (fed to power-aware policies as the admission-budget base).
  double idle_system_power_w_ = 0.0;
  /// Queue-wait accounting for scheduler-placed (non-replay) jobs.
  double wait_sum_s_ = 0.0;
  int queue_started_ = 0;
  double last_completion_s_ = 0.0;
  double run_begin_s_;

  TimeSeries power_series_;
  TimeSeries loss_series_;
  TimeSeries utilization_series_;
  TimeSeries eta_series_;

  void tick();  ///< Algorithm 1 TICK: advance one tick_s step (legacy loop)
  /// Jumps the clock to tick `k` and runs the tick body there.
  void advance_to_tick(long long k);
  /// Arrivals, completions, scheduling, quantum/trace-triggered sampling at
  /// the current (already-advanced) clock.
  void tick_body();
  /// Last tick index the run loop executes for a run_until(t_end_s).
  [[nodiscard]] long long last_tick_for(double t_end_s) const;
  /// Earliest upcoming event tick (arrival, completion, cooling-quantum or
  /// trace-quantum boundary), or k_end + 1 when none falls in the horizon.
  long long next_event_tick(long long k_end);
  /// Closes the integrals at t_end_s, simulating the final partial tick.
  void flush_tail(double t_end_s);
  /// Integrates the interval since the last sample and re-samples power.
  void integrate_and_sample(bool fire_cooling);
  /// True when a running job crossed a utilization trace boundary since the
  /// last sample (only relevant when traces are finer than the quantum).
  [[nodiscard]] bool trace_boundary_crossed() const;
  void ensure_future_sorted();
  void process_arrivals();
  void process_completions();
  bool try_start(const JobRecord& job);
  void schedule_pass();
  void sample_power_and_stats();
  [[nodiscard]] std::vector<RunningJobView> running_views() const;
};

}  // namespace exadigit
