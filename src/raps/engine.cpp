#include "raps/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/units.hpp"

namespace exadigit {

namespace {
/// Arrival (or fixed-start) time that orders a job into the future queue.
double arrival_time(const JobRecord& job) {
  return job.is_replay() ? job.fixed_start_time_s : job.submit_time_s;
}

constexpr long long kNoTickLimit = std::numeric_limits<long long>::max();

/// The engine's one tick search: the first k >= lo where `due(k)` holds,
/// `due` being false and then true as k grows. The walk starts from a float
/// estimate (when it lies in (lo, 9e18)), settles its rounding against the
/// exact predicate, and stops climbing at `hi`.
template <class Due>
long long first_due_tick(double estimate, long long lo, long long hi, Due&& due) {
  long long k = lo;
  if (estimate > static_cast<double>(lo) && estimate < 9.0e18) {
    k = static_cast<long long>(estimate);
  }
  while (k > lo && due(k - 1)) --k;
  while (k < hi && !due(k)) ++k;
  return k;
}
}  // namespace

RapsEngine::RapsEngine(const SystemConfig& config) : RapsEngine(config, Options{}) {}

RapsEngine::RapsEngine(const SystemConfig& config, const Options& options)
    : config_(config),
      options_(options),
      allocator_(config),
      scheduler_(config.scheduler),
      power_(config),
      now_s_(options.start_time_s),
      run_begin_s_(options.start_time_s) {
  // Initial sample so power() is meaningful before the first tick. With no
  // jobs running yet it is also the fleet's idle floor, which power-aware
  // policies use as the base of their admission budget.
  sample_power_and_stats();
  idle_system_power_w_ = power_.sample().system_power_w;
  // The initial sample must not count toward integrals.
  energy_j_ = loss_j_ = output_energy_j_ = input_energy_j_ = 0.0;
  utilization_integral_ = 0.0;
  stats_time_s_ = 0.0;
  min_power_w_ = max_power_w_ = power_.sample().system_power_w;
}

void RapsEngine::submit(JobRecord job) {
  const double when = arrival_time(job);
  require(when >= now_s_, "job submitted in the past: " + job.name);
  require(job.node_count > 0 && job.node_count <= config_.total_nodes(),
          "job node count out of range: " + job.name);
  require(job.wall_time_s > 0.0, "job wall time must be positive: " + job.name);
  future_jobs_.push_back(std::move(job));
  future_sorted_ = false;
}

void RapsEngine::submit_all(std::vector<JobRecord> jobs) {
  for (auto& j : jobs) submit(std::move(j));
}

void RapsEngine::set_cooling_callback(std::function<void(RapsEngine&, double)> callback) {
  cooling_callback_ = std::move(callback);
}

double RapsEngine::utilization() const {
  const int total = allocator_.total_nodes();
  return total > 0 ? static_cast<double>(total - allocator_.free_nodes()) / total : 0.0;
}

bool RapsEngine::try_start(const JobRecord& job) {
  auto nodes = allocator_.allocate(job.node_count, job.partition);
  if (!nodes.has_value()) return false;
  RunningJob r;
  r.record = job;
  r.start_time_s = now_s_;
  r.end_time_s = now_s_ + job.wall_time_s;
  r.nodes = std::move(*nodes);
  if (options_.power_eval == PowerEval::kIncremental) {
    // Register with the incremental power model while the node list is
    // still ours; the model copies what it needs.
    r.power_handle = power_.on_job_start(r.record, r.nodes, now_s_);
  }
  running_.push_back(std::move(r));
  job_start_log_.push_back(JobStartLogEntry{job, now_s_});
  if (!job.is_replay()) {
    // Queue wait of scheduler-placed jobs (replay jobs start on their
    // recorded schedule; a wait would be a replay artifact, not a policy
    // outcome).
    const double wait_s = now_s_ - job.submit_time_s;
    wait_sum_s_ += wait_s > 0.0 ? wait_s : 0.0;
    ++queue_started_;
  }
  return true;
}

void RapsEngine::ensure_future_sorted() {
  if (future_sorted_) return;
  // Descending time so arrivals pop from the back; ties broken by id so
  // jobs sharing a submit/fixed-start time enqueue in a platform-
  // independent order (an unstable sort without the tie-break reordered
  // them depending on the libstdc++ introsort cutoffs).
  std::stable_sort(future_jobs_.begin(), future_jobs_.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     const double ta = arrival_time(a);
                     const double tb = arrival_time(b);
                     if (ta != tb) return ta > tb;
                     return a.id > b.id;
                   });
  future_sorted_ = true;
}

void RapsEngine::process_arrivals() {
  ensure_future_sorted();
  while (!future_jobs_.empty()) {
    const JobRecord& next = future_jobs_.back();
    if (arrival_time(next) > now_s_) break;
    ++jobs_submitted_;
    if (next.is_replay()) {
      // Telemetry replay: start on the recorded schedule, bypassing the
      // built-in scheduler (paper Section III-B).
      if (!try_start(next)) {
        EXADIGIT_WARN << "replay job " << next.name
                      << " could not start on schedule; queueing instead";
        scheduler_.enqueue(next);
      }
    } else {
      scheduler_.enqueue(next);
    }
    future_jobs_.pop_back();
  }
}

void RapsEngine::process_completions() {
  for (std::size_t i = 0; i < running_.size();) {
    if (running_[i].end_time_s <= now_s_) {
      if (running_[i].power_handle >= 0) power_.on_job_stop(running_[i].power_handle);
      allocator_.release(running_[i].nodes);
      ++jobs_completed_;
      if (running_[i].end_time_s > last_completion_s_) {
        last_completion_s_ = running_[i].end_time_s;
      }
      completed_nodes_sum_ += static_cast<double>(running_[i].record.node_count);
      completed_runtime_sum_s_ += running_[i].record.wall_time_s;
      running_[i] = std::move(running_.back());
      running_.pop_back();
    } else {
      ++i;
    }
  }
}

void RapsEngine::schedule_pass() {
  std::vector<RunningJobInfo> infos;
  infos.reserve(running_.size());
  for (const auto& r : running_) {
    infos.push_back(RunningJobInfo{r.end_time_s, r.record.node_count, r.record.id});
  }
  // Power/price feedback for power-aware policies. The sample is the one
  // taken at the last membership change or quantum boundary — stale-high
  // right after completions free nodes, which errs conservative for a cap.
  PowerFeedback feedback;
  feedback.system_power_w = power_.sample().system_power_w;
  feedback.idle_system_power_w = idle_system_power_w_;
  feedback.electricity_usd_per_kwh = config_.economics.electricity_usd_per_kwh;
  feedback.projected_job_wall_w = [this](const JobRecord& job) {
    return power_.projected_job_wall_w(job);
  };
  scheduler_.schedule(now_s_, allocator_, infos, &feedback,
                      [this](const JobRecord& job) { return try_start(job); });
}

std::vector<RunningJobView> RapsEngine::running_views() const {
  std::vector<RunningJobView> views;
  views.reserve(running_.size());
  for (const auto& r : running_) {
    views.push_back(RunningJobView{&r.record, &r.nodes, r.start_time_s});
  }
  return views;
}

void RapsEngine::sample_power_and_stats() {
  const PowerSample& s = options_.power_eval == PowerEval::kIncremental
                             ? power_.advance(now_s_)
                             : power_.recompute(now_s_, running_views());
  sampled_utilization_ = utilization();
  if (options_.collect_series) {
    power_series_.push_back(now_s_, units::mw_from_watts(s.system_power_w));
    loss_series_.push_back(now_s_, units::mw_from_watts(s.loss_w()));
    utilization_series_.push_back(now_s_, sampled_utilization_);
    eta_series_.push_back(now_s_, s.eta_system);
  }
}

void RapsEngine::integrate_and_sample(bool fire_cooling) {
  // Integrate the previous interval with the piecewise-constant power and
  // the utilization held from the same sample (left-held, like power — the
  // old code integrated the *post-event* utilization over the *pre-event*
  // span, counting every job's final interval as idle).
  const PowerSample& prev = power_.sample();
  const double span = now_s_ - prev.time_s;
  if (span > 0.0) {
    energy_j_ += prev.system_power_w * span;
    loss_j_ += prev.loss_w() * span;
    output_energy_j_ += prev.node_output_w * span;
    input_energy_j_ += (prev.system_power_w - config_.cdu_pump_power_w()) * span;
    utilization_integral_ += sampled_utilization_ * span;
    stats_time_s_ += span;
  }
  sample_power_and_stats();
  const double p = power_.sample().system_power_w;
  min_power_w_ = std::min(min_power_w_, p);
  max_power_w_ = std::max(max_power_w_, p);
  if (fire_cooling && cooling_callback_) cooling_callback_(*this, now_s_);
}

bool RapsEngine::trace_boundary_crossed() const {
  const double trace = config_.simulation.trace_quantum_s;
  if (trace >= config_.simulation.cooling_quantum_s) return false;
  const double prev_t = power_.sample().time_s;
  for (const auto& r : running_) {
    if (trace_sample_index(now_s_ - r.start_time_s, trace) !=
        trace_sample_index(prev_t - r.start_time_s, trace)) {
      return true;
    }
  }
  return false;
}

bool RapsEngine::membership_step(bool on_quantum) {
  const std::size_t running_before = running_.size();
  const int completed_before = jobs_completed_;
  const std::size_t queue_before = scheduler_.queue_depth();
  process_completions();
  process_arrivals();
  // A scheduling pass is only useful when nodes were freed or work arrived
  // — except for time-varying policies (price/power aware), which are also
  // consulted at every quantum boundary while jobs are queued, so a
  // deferral can be reconsidered as prices move and waits grow.
  const bool freed_or_arrived = jobs_completed_ != completed_before ||
                                scheduler_.queue_depth() != queue_before ||
                                running_.size() != running_before;
  const bool periodic_pass_due =
      on_quantum && scheduler_.queue_depth() > 0 && scheduler_.wants_periodic_pass();
  if (freed_or_arrived || periodic_pass_due) schedule_pass();
  return running_.size() != running_before || jobs_completed_ != completed_before;
}

void RapsEngine::tick_body() {
  // Every boundary due by this tick fires in its one sample.
  bool on_quantum = false;
  for (; quantum_due(tick_count_, next_quantum_); ++next_quantum_) on_quantum = true;
  // Power needs recomputing only when the running set actually changed.
  const bool membership_changed = membership_step(on_quantum);
  if (on_quantum || membership_changed || trace_boundary_crossed()) {
    integrate_and_sample(/*fire_cooling=*/on_quantum);
  }
}

long long RapsEngine::last_tick_for(double t_end_s) const {
  // Tick k runs iff its time <= t_end + 1e-9 (the legacy loop's predicate):
  // the last to run is the one before the first past the end.
  const double limit = t_end_s + 1e-9;
  const double estimate = std::floor((limit - run_begin_s_) / config_.simulation.tick_s) + 1.0;
  const auto past_end = [&](long long k) { return tick_time(k) > limit; };
  return first_due_tick(estimate, tick_count_ + 1, kNoTickLimit, past_end) - 1;
}

long long RapsEngine::quantum_tick(long long m, long long lo, long long hi) const {
  const SimulationConfig& sim = config_.simulation;
  const double estimate = std::ceil(static_cast<double>(m) * sim.cooling_quantum_s / sim.tick_s);
  return first_due_tick(estimate, lo, hi, [&](long long k) { return quantum_due(k, m); });
}

long long RapsEngine::next_event_tick(long long k_end) {
  const long long lo = tick_count_ + 1;
  const long long hi = k_end + 1;
  long long best = std::min(hi, quantum_tick(next_quantum_, lo, hi));
  // Earliest completion / arrival / trace boundary are absolute times with
  // the processing predicate `t <= now`.
  const auto settle_abs = [&](double t) {
    const double estimate = std::ceil((t - run_begin_s_) / config_.simulation.tick_s);
    const auto reached = [&](long long k) { return t <= tick_time(k); };
    best = std::min(best, first_due_tick(estimate, lo, hi, reached));
  };

  double t_completion = std::numeric_limits<double>::infinity();
  for (const auto& r : running_) t_completion = std::min(t_completion, r.end_time_s);
  if (std::isfinite(t_completion)) settle_abs(t_completion);

  ensure_future_sorted();
  if (!future_jobs_.empty()) settle_abs(arrival_time(future_jobs_.back()));

  const double trace = config_.simulation.trace_quantum_s;
  if (trace < config_.simulation.cooling_quantum_s) {
    double t_trace = std::numeric_limits<double>::infinity();
    for (const auto& r : running_) {
      const double next_sample = trace_sample_index(now_s_ - r.start_time_s, trace) + 1.0;
      t_trace = std::min(t_trace, r.start_time_s + next_sample * trace);
    }
    if (std::isfinite(t_trace)) settle_abs(t_trace);
  }
  return best;
}

double RapsEngine::last_quantum_fire_s(double t_s) const {
  if (t_s <= run_begin_s_) return run_begin_s_;
  const auto fire_s = [&](long long m) { return tick_time(quantum_tick(m, 0, kNoTickLimit)); };
  // The last boundary fired by t_s is the one before the first fired after it.
  const double estimate =
      std::floor((t_s - run_begin_s_) / config_.simulation.cooling_quantum_s) + 1.0;
  const auto fired_after = [&](long long m) { return fire_s(m) > t_s; };
  const long long m = first_due_tick(estimate, 1, kNoTickLimit, fired_after) - 1;
  return m >= 1 ? fire_s(m) : run_begin_s_;
}

void RapsEngine::flush_tail(double t_end_s) {
  if (t_end_s > now_s_) {
    // The tail lies inside the final (partial) tick: advance the clock off
    // the grid, honoring any completions/arrivals due by t_end.
    now_s_ = t_end_s;
    membership_step(/*on_quantum=*/false);
  }
  // Close the integrals exactly at t_end. Without this, the span since the
  // last sample was silently dropped whenever t_end was not a quantum or
  // membership boundary — under-counting energy and utilization.
  if (power_.sample().time_s < now_s_) integrate_and_sample(/*fire_cooling=*/false);
}

void RapsEngine::run_until(double t_end_s) {
  require(t_end_s >= now_s_, "run_until target is in the past");
  const long long k_end = last_tick_for(t_end_s);
  while (tick_count_ < k_end) {
    const long long k =
        options_.mode == EngineMode::kTickLoop ? tick_count_ + 1 : next_event_tick(k_end);
    // Past the horizon nothing can happen: land on the final tick.
    tick_count_ = std::min(k, k_end);
    now_s_ = tick_time(tick_count_);
    if (k <= k_end) tick_body();
  }
  flush_tail(t_end_s);
}

Report RapsEngine::report() const {
  Report r;
  r.duration_s = now_s_ - run_begin_s_;
  r.jobs_submitted = jobs_submitted_;
  r.jobs_completed = jobs_completed_;
  r.jobs_rejected = scheduler_.rejected_count();
  r.max_queue_depth = scheduler_.max_queue_depth_seen();
  if (queue_started_ > 0) r.avg_wait_s = wait_sum_s_ / queue_started_;
  if (jobs_completed_ > 0) r.makespan_s = last_completion_s_ - run_begin_s_;
  const double hours = r.duration_s / units::kSecondsPerHour;
  r.throughput_jobs_per_hour = hours > 0.0 ? jobs_completed_ / hours : 0.0;
  if (stats_time_s_ > 0.0) {
    const double avg_power_w = energy_j_ / stats_time_s_;
    r.avg_power_mw = units::mw_from_watts(avg_power_w);
    r.avg_loss_mw = units::mw_from_watts(loss_j_ / stats_time_s_);
    r.loss_fraction = avg_power_w > 0.0 ? (loss_j_ / stats_time_s_) / avg_power_w : 0.0;
    r.avg_utilization = utilization_integral_ / stats_time_s_;
  }
  r.min_power_mw = units::mw_from_watts(min_power_w_);
  r.max_power_mw = units::mw_from_watts(max_power_w_);
  r.total_energy_mwh = units::mwh_from_joules(energy_j_);
  // Energy-weighted Eq. (1): conversion output over conversion input,
  // i.e. one minus the loss share of the wall energy entering the racks.
  r.avg_eta_system =
      input_energy_j_ > 0.0 ? std::min(1.0, 1.0 - loss_j_ / input_energy_j_) : 1.0;
  if (!loss_series_.empty()) {
    r.max_loss_mw = loss_series_.max_value();
  }
  if (jobs_submitted_ > 0) {
    r.avg_arrival_s = r.duration_s / static_cast<double>(jobs_submitted_);
  }
  if (jobs_completed_ > 0) {
    r.avg_nodes_per_job = completed_nodes_sum_ / jobs_completed_;
    r.avg_runtime_min = completed_runtime_sum_s_ / jobs_completed_ / 60.0;
  }
  r.carbon_tons =
      carbon_tons_from_energy(r.total_energy_mwh, r.avg_eta_system, config_.economics);
  r.energy_cost_usd = energy_cost_usd(r.total_energy_mwh, config_.economics);
  return r;
}

}  // namespace exadigit
