#pragma once

/// @file power_model.hpp
/// Dynamic system power from running jobs (paper Eqs. (3)-(4), Section
/// III-B2).
///
/// Every power update: node-side 48 V loads are accumulated per rectifier
/// group (idle nodes at idle power, job nodes at Eq. (3) power for the
/// job's current trace utilization), each group runs through the
/// conversion chain (load-dependent rectifier + SIVOC efficiencies), rack
/// switch power is added through the rectifier stage, and the constant CDU
/// pump cost closes Eq. (4) into P_system. Per-CDU wall power times the
/// cooling efficiency (0.945) becomes the heat fed to the cooling model.
///
/// The model is *incremental*: per-node idle power and per-job node
/// configurations are resolved once (at construction / job start). Each
/// rectifier group keeps a short list of its occupants (job slot, node
/// count, idle-power sum); job start/stop and utilization changes only mark
/// the touched groups dirty, and advance() recomputes each dirty group from
/// its current occupants as (idle baseline - occupied idle) + sum of
/// count x node power. A group's load is therefore a function of its
/// occupancy, not of the run's history: a group one job fully covers carries
/// exactly nodes_per_group x p, and an emptied group returns to its idle
/// baseline bit for bit. Only racks holding a dirty group are
/// re-evaluated, with value-keyed memos collapsing the repeated group and
/// whole-rack operating points that equal occupancy produces. RapsEngine
/// drives the incremental interface (on_job_start / on_job_stop /
/// advance); the stateless recompute() rebuilds everything from the given
/// running set and remains available for one-shot evaluations.
///
/// advance() refreshes each job's node power, recomputes the dirty groups,
/// then re-evaluates the dirty racks in ascending rack order and folds
/// their deltas into the totals in that order, so the rounding of every
/// total is fixed by rack order, not by which job dirtied a rack first. The
/// memos are exact-key caches of deterministic functions, so a hit returns
/// the same bits a recompute would.

#include <span>
#include <vector>

#include "config/system_config.hpp"
#include "power/rack_power.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

/// A running job the power model needs to see.
struct RunningJobView {
  const JobRecord* job = nullptr;
  const std::vector<int>* nodes = nullptr;
  double start_time_s = 0.0;
};

/// Snapshot of the latest power evaluation.
struct PowerSample {
  double time_s = 0.0;
  double system_power_w = 0.0;      ///< P_system (incl. CDU pumps)
  double node_output_w = 0.0;       ///< total 48 V delivered to nodes
  double rectifier_loss_w = 0.0;
  double sivoc_loss_w = 0.0;
  double eta_system = 1.0;          ///< Eq. (1) aggregate
  int active_nodes = 0;

  [[nodiscard]] double loss_w() const { return rectifier_loss_w + sivoc_loss_w; }
};

/// Aggregates job power into rack/CDU/system wall power.
class RapsPowerModel {
 public:
  explicit RapsPowerModel(const SystemConfig& config);

  // --- incremental interface (the engine's hot path) ----------------------
  /// Registers a job that started holding `nodes` at `start_time_s`; the
  /// job's node configuration is resolved here, once. Returns a handle for
  /// on_job_stop. The sample is stale until the next advance().
  int on_job_start(const JobRecord& job, const std::vector<int>& nodes,
                   double start_time_s);
  /// Unregisters a stopped job; its nodes fall back to idle power.
  void on_job_stop(int handle);
  /// Re-evaluates registered jobs' utilization at `now`, re-walks only the
  /// racks whose group loads changed, and refreshes the sample.
  const PowerSample& advance(double now);

  /// Rebuilds all power state from scratch for the running set at `now`.
  /// Clears any incrementally registered jobs — do not mix with the
  /// incremental interface on the same instance mid-run.
  const PowerSample& recompute(double now, std::span<const RunningJobView> running);

  [[nodiscard]] const PowerSample& sample() const { return sample_; }
  /// Conservative wall-power increment (watts) of starting `job` now:
  /// peak-utilization node power above idle for the job's partition,
  /// divided by the sampled system conversion efficiency (clamped to
  /// [0.5, 1]) to translate the 48 V node-side delta into wall power.
  /// Feeds power-aware scheduling policies (PowerFeedback); an upper
  /// bound, not the trace-following draw.
  [[nodiscard]] double projected_job_wall_w(const JobRecord& job) const;
  /// Wall power per CDU (rack inputs summed; excludes the CDU pump).
  [[nodiscard]] const std::vector<double>& cdu_wall_power_w() const { return cdu_wall_w_; }
  /// Heat per CDU handed to the cooling model (wall power x cooling eff).
  [[nodiscard]] std::vector<double> cdu_heat_w() const;
  /// Wall power per rack.
  [[nodiscard]] const std::vector<double>& rack_wall_power_w() const { return rack_wall_w_; }
  /// 48 V node-side output per rectifier group (viz / diagnostics).
  [[nodiscard]] const std::vector<double>& group_output_w() const { return group_output_w_; }

  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  /// One running job's share of a rectifier group: `count` of the job's
  /// nodes (active_ slot `slot`) whose idle powers sum to `idle_sum_w`.
  /// Resolved once at job start, so recomputing a group is one multiply-add
  /// per occupant, not one divide-and-add per node.
  struct GroupOccupant {
    int slot = 0;
    int count = 0;
    double idle_sum_w = 0.0;
  };

  /// A registered running job (incremental interface). The record is copied
  /// so the engine's running vector may reallocate freely.
  struct ActiveJob {
    JobRecord job;
    std::vector<int> groups;  ///< groups listing this job as an occupant
    double start_time_s = 0.0;
    /// Uniform per-node 48 V power the job's groups are computed with.
    double applied_node_w = 0.0;
    const NodeConfig* node_cfg = nullptr;  ///< resolved once at start
    bool live = false;
  };

  SystemConfig config_;
  RackPowerModel rack_model_;
  int groups_per_rack_;
  int nodes_per_group_;
  std::vector<double> idle_node_w_;          ///< per-node idle power (precomputed)
  std::vector<double> idle_group_output_w_;  ///< baseline with all nodes idle
  std::vector<double> group_output_w_;
  std::vector<double> rack_wall_w_;
  std::vector<double> cdu_wall_w_;
  PowerSample sample_;

  // Incremental state.
  std::vector<ActiveJob> active_;
  std::vector<int> free_slots_;
  /// Per group, its occupants in start order (the summation order).
  std::vector<std::vector<GroupOccupant>> group_occupants_;
  std::vector<char> group_dirty_;
  std::vector<int> dirty_groups_;
  std::vector<RackPowerResult> rack_results_;
  std::vector<char> rack_dirty_;
  std::vector<int> dirty_racks_;
  ConversionMemo memo_;
  /// Rack results keyed on a *uniform* group load: racks fully covered by
  /// one job (or idle) all share one value, so a fleet-wide load change
  /// costs one rack evaluation plus cache hits.
  ValueMemo<RackPowerResult> rack_memo_;
  double total_input_w_ = 0.0;
  double total_output_w_ = 0.0;
  double switch_output_w_ = 0.0;
  double rect_loss_w_ = 0.0;
  double sivoc_loss_w_ = 0.0;
  int active_nodes_ = 0;

  /// Node-side power of one node of `job` at time `now` (Eq. (3)).
  [[nodiscard]] double job_node_power_w(const JobRecord& job, const NodeConfig& cfg,
                                        double now, double start_time_s) const;
  /// Node config for the job's partition; throws on an unknown partition.
  [[nodiscard]] const NodeConfig& node_config_for(const JobRecord& job) const;
  /// Reference per-node idle power (the original O(partitions) scan). The
  /// incremental path uses the precomputed idle_node_w_ array instead; this
  /// stays as the seed-faithful arithmetic (and cost profile) recompute()
  /// is benchmarked against. Values are bit-identical to idle_node_w_.
  [[nodiscard]] double idle_node_power_w(int node_index) const;
  /// Recomputes every dirty group's load from its occupants and marks its
  /// rack dirty.
  void refresh_dirty_groups();
  /// Evaluates one rack's conversion chain through memo_ (uniform-load
  /// racks hit rack_memo_). Pure modulo the caches.
  [[nodiscard]] RackPowerResult evaluate_rack(int r);
  /// Re-evaluates every dirty rack and folds the differences into totals.
  void refresh_dirty_racks();
  /// Recomputes every rack and all totals from group_output_w_. With
  /// `use_memo` the fast run-length path is taken; without it the exact
  /// reference accumulation (the recompute() contract) is used.
  void rebuild_all_racks(bool use_memo);
  void fill_sample(double now);
};

}  // namespace exadigit
