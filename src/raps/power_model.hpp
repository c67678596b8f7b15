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
/// pump cost closes Eq. (4) into P_system. The per-CDU wall power
/// (cdu_wall_power_w) is what the twin hands the cooling model, as heat
/// times the cooling efficiency (0.945, DigitalTwin::step_plant).
///
/// The paper's verification of this model (Table III's idle, HPL and peak
/// power, the Fig. 4 breakdown and Finding 9's losses) runs on this model
/// too: uniform_load_power registers one job on every node and samples it
/// through the incremental path below.
///
/// The model is *incremental*, and its cost follows the jobs whose power
/// changes, not the groups they touch. Idle power is resolved once per
/// group at construction (each distinct idle load summed and converted
/// once), and a job's node configuration once at on_job_start(), which
/// walks the job's nodes group by group and splits the groups it touches:
///  - a *full* group, every node of which is the job's, leaves the occupant
///    lists. Its load is (idle baseline - the job's idle sum) + n x p, with
///    the base fixed at start (0 on an ascending allocation) and n nodes
///    per group. Consecutive full groups with one base form a run;
///  - a *partial* group (held in part, or shared with other jobs) keeps a
///    short list of occupants (job slot, node count, idle-power sum) in
///    start order.
/// When a job's node power p changes, advance() converts once for all of
/// its full groups and writes their loads and conversions in place, and
/// marks only its partial groups dirty; each dirty group is then re-summed
/// from its occupants as (idle baseline - occupied idle) + sum of count x p.
/// A group's load is a function of its occupancy, not of the run's
/// history: a group one job fully covers carries exactly n x p, and an
/// emptied group returns to its idle baseline bit for bit.
///
/// Each group keeps the conversion of its current load (a GroupConversion)
/// and is converted again only when that load changes: an emptied group
/// takes its idle-baseline conversion; a group one job holds, whole or in
/// part, shares the conversion that job last computed at that exact load;
/// a shared group the one its oldest occupant last computed for a shared
/// group (groups that the same jobs split alike carry one load too); any
/// other group runs the conversion chain. Only racks whose group loads
/// changed are re-evaluated, by summing their groups' stored conversions
/// (RackPowerModel::from_group_conversions); a rack that one run of a
/// job's full groups covers entirely holds one load in every group, so
/// all such racks of the job share one rack result per load. A conversion
/// and a rack sum are pure functions of their loads, so a stored or
/// shared one has the bits a fresh one would.
///
/// The dirty-group pass runs in three steps: it re-sums each dirty group
/// and resolves the idle, sole and lead reuse above; it converts the loads
/// left in one ConversionChain::convert_batch call, two loads per packed
/// operation; and it stores those conversions in ascending group order, in
/// the groups and in the sole and lead conversions they refill. A refill
/// counts as stored from the moment it is queued, so a later group of the
/// same load waits for it, and the pass converts exactly the loads a
/// group-by-group pass would.
///
/// Live job slots, dirty groups and dirty racks are bitmaps walked in
/// ascending order, so advance() visits only the jobs it evaluates and
/// sorts nothing; it re-evaluates the dirty racks in ascending rack order
/// and folds their deltas into the totals in that order, so the rounding of
/// every total is fixed by rack order, not by which job dirtied a rack
/// first. The hot per-slot values (applied node power, shared conversions
/// and rack results) are dense arrays beside the copied JobRecord. Every
/// per-group and per-rack array, the batch's scratch included, is sized at
/// construction, so advance() allocates nothing.
///
/// A job whose utilization traces have both reached their last sample
/// draws constant power from then on and is not re-evaluated. That pays
/// only while a job outlives its traces: WorkloadGenerator's traces cover
/// a quarter of the wall time (at most 64 samples), so about 78 % of job
/// evaluations on the perfbench ooc_replay and coupled_day workloads are
/// skipped, while a recorded job whose traces span its whole run settles
/// only as it ends.
///
/// Per replay of perfbench's ooc_replay week (seed 3, 8.6 k jobs
/// completed): 48.3 k samples change 5.82 M group loads, 62 % of them in
/// full groups, 35 % in shared groups and 3 % in groups one job holds in
/// part. The full-group loads are written in place; the rest are re-summed
/// from occupants, which was the path of every group before. The samples
/// run 2.35 M chain conversions (2.38 M before, when full groups were
/// re-summed too) and 1.18 M rack sums (1.25 M before shared rack results),
/// and no sort of the dirty racks (one per sample before).
///
/// RapsEngine drives the incremental interface (on_job_start / on_job_stop
/// / advance); the stateless recompute() rebuilds everything from the
/// given running set, reading the same idle powers and summing racks with
/// the exact reference RackPowerModel::from_group_outputs, which also
/// hands back each group's conversion, so every group is converted once
/// and the stored conversions stay consistent. It serves one-shot
/// evaluations and RapsEngine's PowerEval::kFullRecompute reference, which
/// is selected on RapsEngine::Options only.

#include <cstdint>
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
  double switch_output_w = 0.0;     ///< total switch load (DC side)
  double eta_system = 1.0;          ///< Eq. (1) aggregate
  int active_nodes = 0;

  [[nodiscard]] double loss_w() const { return rectifier_loss_w + sivoc_loss_w; }
};

/// Per-component system power breakdown at one instant (paper Fig. 4).
struct PowerBreakdown {
  double gpus_w = 0.0;
  double cpus_w = 0.0;
  double ram_w = 0.0;
  double nvme_w = 0.0;
  double nics_w = 0.0;
  double switches_w = 0.0;
  double rectifier_loss_w = 0.0;
  double sivoc_loss_w = 0.0;
  double cdu_pumps_w = 0.0;
  [[nodiscard]] double total_w() const {
    return gpus_w + cpus_w + ram_w + nvme_w + nics_w + switches_w + rectifier_loss_w +
           sivoc_loss_w + cdu_pumps_w;
  }
};

/// P_system and its breakdown with every node running at one load.
struct UniformLoadPower {
  PowerSample sample;        ///< RapsPowerModel's sample: P_system, losses, eta
  PowerBreakdown breakdown;  ///< its components (paper Fig. 4)
};

/// Aggregates job power into rack/CDU/system wall power.
class RapsPowerModel {
 public:
  explicit RapsPowerModel(const SystemConfig& config);

  // --- incremental interface (the engine's hot path) ----------------------
  /// Registers a job that started holding `nodes` at `start_time_s`; the
  /// job's node configuration is resolved here, once. Returns a handle for
  /// on_job_stop. The sample is stale until the next advance(). `nodes`
  /// are distinct and held by no other running job, as NodeAllocator hands
  /// them out; a node out of range or in a group another running job holds
  /// whole throws ConfigError and changes nothing.
  int on_job_start(const JobRecord& job, const std::vector<int>& nodes,
                   double start_time_s);
  /// Unregisters a stopped job; its nodes fall back to idle power.
  void on_job_stop(int handle);
  /// Re-evaluates registered jobs' utilization at `now`, re-walks only the
  /// racks whose group loads changed, and refreshes the sample. `now` must
  /// not decrease from one call to the next (it is the engine's clock): a
  /// job found settled at `now` is not evaluated again.
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
  /// Wall power per rack.
  [[nodiscard]] const std::vector<double>& rack_wall_power_w() const { return rack_wall_w_; }
  /// 48 V node-side output per rectifier group (viz / diagnostics).
  [[nodiscard]] const std::vector<double>& group_output_w() const { return group_output_w_; }
  /// The stored conversion of each group's current load (diagnostics).
  [[nodiscard]] const std::vector<GroupConversion>& group_conversions() const {
    return group_conv_;
  }

  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  /// A running job's share of a group it holds in part or shares with
  /// other jobs: `count` of the job's nodes (slot `slot`) whose idle powers
  /// sum to `idle_sum_w`. Resolved once at job start, so recomputing a
  /// group is one multiply-add per occupant.
  struct GroupOccupant {
    int slot = 0;
    int count = 0;
    double idle_sum_w = 0.0;
  };

  /// Consecutive groups [first, first + count) that one job holds whole,
  /// all with one base: each carries base_w + nodes_per_group x p, with
  /// base_w = (idle baseline - the job's idle sum) fixed at start (0 for
  /// groups allocated in ascending node order).
  struct FullRun {
    int first = 0;
    int count = 0;
    double base_w = 0.0;
  };

  /// A registered running job's cold state (the hot per-slot values live
  /// in the dense arrays below). The record is copied so the engine's
  /// running vector may reallocate freely.
  struct ActiveJob {
    JobRecord job;
    double start_time_s = 0.0;
    const NodeConfig* node_cfg = nullptr;  ///< resolved once at start
    std::vector<FullRun> full;             ///< in allocation order
    std::vector<int> partial;              ///< groups listing it as an occupant
    int nodes = 0;
  };

  /// The rack result a job's covered racks share, for the load it belongs
  /// to (NaN: none yet).
  struct SharedRack {
    double load_w = 0.0;
    RackPowerResult result;
  };

  /// A run of nodes, ending before `end`, whose idle power is `idle_w`.
  struct IdleRange {
    int end = 0;
    double idle_w = 0.0;
  };

  enum class SlotState : unsigned char { kFree, kHeld };

  /// A conversion a job keeps for reuse: its output_w is the load it
  /// belongs to (NaN: none yet). A dirty-group pass that queues a refill
  /// sets output_w to the refill's load and `entry` to its batch entry at
  /// once, and stores the other fields after the batch; `entry` names a
  /// queued refill only while that entry of the current batch points back
  /// here.
  struct KeptConversion {
    GroupConversion conv;
    std::size_t entry = 0;
  };

  /// A dirty group waiting for the conversion of batch entry `entry`.
  struct QueuedGroup {
    int group = 0;
    std::size_t entry = 0;
  };

  SystemConfig config_;
  RackPowerModel rack_model_;
  int groups_per_rack_;
  int nodes_per_group_;
  std::vector<IdleRange> idle_ranges_;  ///< partitions, then the default node
  /// Per group: the idle power of each of its nodes, NaN where a partition
  /// boundary splits the group.
  std::vector<double> group_node_idle_w_;
  std::vector<double> idle_group_output_w_;       ///< baseline with all nodes idle
  std::vector<GroupConversion> idle_group_conv_;  ///< conversion of each baseline
  std::vector<double> group_output_w_;
  std::vector<GroupConversion> group_conv_;  ///< conversion of group_output_w_
  std::vector<double> rack_wall_w_;
  std::vector<double> cdu_wall_w_;
  PowerSample sample_;

  // Incremental state. Per slot: the cold job and, dense, the hot values.
  std::vector<ActiveJob> jobs_;
  std::vector<SlotState> state_;
  /// Bitmap of the held slots advance() still evaluates: a job leaves it
  /// once its traces have settled.
  std::vector<std::uint64_t> live_;
  /// Uniform per-node 48 V power the job's groups are computed with (NaN
  /// until its first advance()).
  std::vector<double> applied_w_;
  /// The conversions last computed for a group the job occupies alone and
  /// for a shared group whose oldest occupant it is.
  std::vector<KeptConversion> sole_conv_;
  std::vector<KeptConversion> lead_conv_;
  std::vector<SharedRack> shared_rack_;
  std::vector<int> free_slots_;
  std::vector<int> touched_;  ///< on_job_start scratch: groups in first-touch order
  /// Per group, its occupants in start order (the summation order); empty
  /// for a full group, whose owner writes it.
  std::vector<std::vector<GroupOccupant>> group_occupants_;
  std::vector<int> group_owner_;            ///< slot holding the group whole, or -1
  std::vector<int> rack_owner_;             ///< slot covering the rack at one load, or -1
  std::vector<std::uint64_t> group_dirty_;  ///< bitmap: re-sum from occupants
  std::vector<std::uint64_t> rack_dirty_;   ///< bitmap: re-sum from conversions
  std::vector<RackPowerResult> rack_results_;
  /// refresh_dirty_groups scratch, sized at construction: the queued
  /// groups and, per batch entry, the load to convert, the kept conversion
  /// it refills and its conversion.
  std::vector<QueuedGroup> queued_;
  std::vector<double> batch_load_;
  std::vector<KeptConversion*> batch_kept_;
  std::vector<GroupConversion> batch_conv_;
  double total_input_w_ = 0.0;
  double total_output_w_ = 0.0;
  double switch_output_w_ = 0.0;
  double rect_loss_w_ = 0.0;
  double sivoc_loss_w_ = 0.0;
  int active_nodes_ = 0;

  /// Node config for the job's partition; throws on an unknown partition.
  [[nodiscard]] const NodeConfig& node_config_for(const JobRecord& job) const;
  /// Idle power of `node` (the partition it belongs to).
  [[nodiscard]] double node_idle_w(int node) const;
  /// A free slot, with its dense entries allocated.
  [[nodiscard]] int acquire_slot();
  /// Sets rack_owner_ to `owner` for every rack that `run` covers.
  void own_covered_racks(const FullRun& run, int owner);
  /// Writes the loads and conversions of job `slot`'s full groups for
  /// `busy_w` = nodes_per_group x its node power, marking changed racks.
  void write_full_groups(std::size_t slot, double busy_w);
  /// Recomputes every dirty group's load from its occupants. A group whose
  /// load changed marks its rack dirty and takes the conversion of its new
  /// load: the idle baseline's, or its first occupant's sole_conv /
  /// lead_conv where that one's load matches, else freshly converted and
  /// kept there. The fresh conversions run in batches
  /// (ConversionChain::convert_batch) and are written back in ascending
  /// group order.
  void refresh_dirty_groups();
  /// Rack `r` summed from its groups' stored conversions.
  [[nodiscard]] RackPowerResult evaluate_rack(int r) const;
  /// Rack `r`, covered by job `slot` at one load: the job's shared result,
  /// re-evaluated only when that load changed.
  [[nodiscard]] const RackPowerResult& shared_rack(std::size_t slot, int r);
  /// Re-evaluates every dirty rack and folds the differences into totals.
  void refresh_dirty_racks();
  /// Recomputes every rack's wall power and all totals from rack_results_,
  /// in rack order.
  void fold_all_racks();
  void fill_sample(double now);
};

/// The machine with one job on every node at constant utilizations
/// `cpu_util` and `gpu_util`, as RapsEngine evaluates it: the job starts on
/// the nodes NodeAllocator hands it (on_job_start), then one advance()
/// samples it. The job names no partition, so its nodes draw the default
/// NodeConfig. The breakdown scales that node's power_split by the node
/// count and takes the switch load, the losses and the CDU pumps from the
/// sample.
[[nodiscard]] UniformLoadPower uniform_load_power(const SystemConfig& config, double cpu_util,
                                                  double gpu_util);

}  // namespace exadigit
