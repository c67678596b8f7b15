#include "raps/power_model.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace exadigit {
namespace {

/// Appends `index` to a dirty list unless its flag already marks it.
void mark_dirty(std::vector<char>& flags, std::vector<int>& list, int index) {
  if (flags[static_cast<std::size_t>(index)] == 0) {
    flags[static_cast<std::size_t>(index)] = 1;
    list.push_back(index);
  }
}

}  // namespace

RapsPowerModel::RapsPowerModel(const SystemConfig& config)
    : config_(config), rack_model_(config.rack, config.power) {
  config_.validate();
  groups_per_rack_ = rack_model_.groups_per_rack();
  nodes_per_group_ = rack_model_.nodes_per_group();
  const int total_groups = config_.rack_count * groups_per_rack_;

  // Per-node idle power resolved once: the per-sample partition scan the
  // old model ran for every node of every running job is now a lookup.
  idle_node_w_.resize(static_cast<std::size_t>(config_.total_nodes()));
  std::size_t n = 0;
  for (const auto& p : config_.partitions) {
    const double idle = p.node.idle_power_w();
    for (int i = 0; i < p.node_count && n < idle_node_w_.size(); ++i) {
      idle_node_w_[n++] = idle;
    }
  }
  const double default_idle = config_.node.idle_power_w();
  for (; n < idle_node_w_.size(); ++n) idle_node_w_[n] = default_idle;

  idle_group_output_w_.assign(static_cast<std::size_t>(total_groups), 0.0);
  for (int node = 0; node < config_.total_nodes(); ++node) {
    idle_group_output_w_[static_cast<std::size_t>(node / nodes_per_group_)] +=
        idle_node_w_[static_cast<std::size_t>(node)];
  }
  // Each group's idle conversion, once: groups of different partitions
  // idle at different loads.
  idle_group_conv_.reserve(idle_group_output_w_.size());
  for (const double load : idle_group_output_w_) {
    idle_group_conv_.push_back(GroupConversion::of(rack_model_.chain().convert(load)));
  }
  group_output_w_ = idle_group_output_w_;
  group_conv_ = idle_group_conv_;
  group_occupants_.resize(static_cast<std::size_t>(total_groups));
  group_dirty_.assign(static_cast<std::size_t>(total_groups), 0);
  // Each group/rack is listed at most once, so marking never reallocates.
  dirty_groups_.reserve(static_cast<std::size_t>(total_groups));
  dirty_racks_.reserve(static_cast<std::size_t>(config_.rack_count));
  rack_wall_w_.assign(static_cast<std::size_t>(config_.rack_count), 0.0);
  cdu_wall_w_.assign(static_cast<std::size_t>(config_.cdu_count), 0.0);
  rack_results_.resize(static_cast<std::size_t>(config_.rack_count));
  rack_dirty_.assign(static_cast<std::size_t>(config_.rack_count), 0);
  for (int r = 0; r < config_.rack_count; ++r) {
    rack_results_[static_cast<std::size_t>(r)] = evaluate_rack(r);
  }
  fold_all_racks();
}

double RapsPowerModel::projected_job_wall_w(const JobRecord& job) const {
  const NodeConfig& cfg = node_config_for(job);
  const double node_delta_w = cfg.peak_power_w() - cfg.idle_power_w();
  const double eta = std::clamp(sample_.eta_system, 0.5, 1.0);
  return node_delta_w * static_cast<double>(job.node_count) / eta;
}

const NodeConfig& RapsPowerModel::node_config_for(const JobRecord& job) const {
  if (!job.partition.empty()) {
    for (const auto& p : config_.partitions) {
      if (p.name == job.partition) return p.node;
    }
    throw ConfigError("job references unknown partition: " + job.partition);
  }
  return config_.node;
}

int RapsPowerModel::on_job_start(const JobRecord& job, const std::vector<int>& nodes,
                                 double start_time_s) {
  const NodeConfig& cfg = node_config_for(job);  // resolved once; throws early
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(active_.size());
    active_.emplace_back();
  }
  ActiveJob& a = active_[static_cast<std::size_t>(slot)];
  a.job = job;
  a.start_time_s = start_time_s;
  a.applied_node_w = 0.0;
  a.node_cfg = &cfg;
  a.sole_conv.output_w = std::numeric_limits<double>::quiet_NaN();  // matches no load
  a.lead_conv.output_w = std::numeric_limits<double>::quiet_NaN();
  a.live = true;
  a.settled = false;
  // One occupant entry per touched group, nodes counted and idle powers
  // summed in allocation order. A group's newest entry is this job's while
  // it is being registered, so non-contiguous nodes fold into one entry.
  // The loads themselves are recomputed at the next advance().
  a.groups.clear();
  for (const int node : nodes) {
    const int group = node / nodes_per_group_;
    std::vector<GroupOccupant>& occupants = group_occupants_[static_cast<std::size_t>(group)];
    if (occupants.empty() || occupants.back().slot != slot) {
      occupants.push_back(GroupOccupant{slot, 0, 0.0});
      a.groups.push_back(group);
      mark_dirty(group_dirty_, dirty_groups_, group);
    }
    occupants.back().count += 1;
    occupants.back().idle_sum_w += idle_node_w_[static_cast<std::size_t>(node)];
  }
  active_nodes_ += static_cast<int>(nodes.size());
  return slot;
}

void RapsPowerModel::on_job_stop(int handle) {
  require(handle >= 0 && handle < static_cast<int>(active_.size()) &&
              active_[static_cast<std::size_t>(handle)].live,
          "on_job_stop: invalid or already-stopped job handle");
  ActiveJob& a = active_[static_cast<std::size_t>(handle)];
  for (const int group : a.groups) {
    std::vector<GroupOccupant>& occupants = group_occupants_[static_cast<std::size_t>(group)];
    const auto it = std::find_if(occupants.begin(), occupants.end(),
                                 [handle](const GroupOccupant& o) { return o.slot == handle; });
    active_nodes_ -= it->count;
    occupants.erase(it);  // keeps the other occupants' summation order
    mark_dirty(group_dirty_, dirty_groups_, group);
  }
  a.live = false;
  a.job = JobRecord{};
  a.groups.clear();
  a.node_cfg = nullptr;
  free_slots_.push_back(handle);
}

// exadigit-hot-begin(power-advance)
const PowerSample& RapsPowerModel::advance(double now) {
  const double quantum_s = config_.simulation.trace_quantum_s;
  for (ActiveJob& a : active_) {
    if (!a.live || a.settled) continue;
    const JobRecord::Utilization u = a.job.utilization_at(now - a.start_time_s, quantum_s);
    const double p = a.node_cfg->power_w(u.cpu, u.gpu);  // Eq. (3)
    if (p != a.applied_node_w) {
      a.applied_node_w = p;
      for (const int group : a.groups) mark_dirty(group_dirty_, dirty_groups_, group);
    }
    a.settled = u.settled;
  }
  refresh_dirty_groups();
  refresh_dirty_racks();
  fill_sample(now);
  return sample_;
}

void RapsPowerModel::refresh_dirty_groups() {
  for (const int g : dirty_groups_) {
    const std::size_t gi = static_cast<std::size_t>(g);
    group_dirty_[gi] = 0;
    double occupied_idle_w = 0.0;
    double busy_w = 0.0;
    for (const GroupOccupant& o : group_occupants_[gi]) {
      occupied_idle_w += o.idle_sum_w;
      busy_w += static_cast<double>(o.count) *
                active_[static_cast<std::size_t>(o.slot)].applied_node_w;
    }
    const double load = (idle_group_output_w_[gi] - occupied_idle_w) + busy_w;
    // An unchanged load keeps its conversion and leaves the rack as it is.
    if (load == group_output_w_[gi]) continue;
    group_output_w_[gi] = load;
    group_conv_[gi] = conversion_for(gi, load);
    mark_dirty(rack_dirty_, dirty_racks_, g / groups_per_rack_);
  }
  dirty_groups_.clear();
}

GroupConversion RapsPowerModel::conversion_for(std::size_t g, double load) {
  if (load == idle_group_output_w_[g]) return idle_group_conv_[g];
  // refresh_dirty_groups() is the only caller, and it gives a group without
  // occupants exactly its idle load, so a loaded group has a first occupant.
  const std::vector<GroupOccupant>& occupants = group_occupants_[g];
  ActiveJob& first = active_[static_cast<std::size_t>(occupants.front().slot)];
  GroupConversion& shared = occupants.size() == 1 ? first.sole_conv : first.lead_conv;
  if (shared.output_w != load) shared = GroupConversion::of(rack_model_.chain().convert(load));
  return shared;
}

RackPowerResult RapsPowerModel::evaluate_rack(int r) const {
  return rack_model_.from_group_conversions(std::span<const GroupConversion>(
      group_conv_.data() + static_cast<std::size_t>(r) * groups_per_rack_,
      static_cast<std::size_t>(groups_per_rack_)));
}

void RapsPowerModel::refresh_dirty_racks() {
  if (dirty_racks_.empty()) return;
  // Rack order fixes the accumulation (and its rounding) independently of
  // which job dirtied a rack first, and walks group_conv_ in order.
  std::sort(dirty_racks_.begin(), dirty_racks_.end());
  for (const int r : dirty_racks_) {
    const RackPowerResult fresh = evaluate_rack(r);
    const RackPowerResult& old = rack_results_[static_cast<std::size_t>(r)];
    total_input_w_ += fresh.input_w - old.input_w;
    total_output_w_ += fresh.node_output_w - old.node_output_w;
    switch_output_w_ += fresh.switch_output_w - old.switch_output_w;
    rect_loss_w_ += fresh.rectifier_loss_w - old.rectifier_loss_w;
    sivoc_loss_w_ += fresh.sivoc_loss_w - old.sivoc_loss_w;
    rack_wall_w_[static_cast<std::size_t>(r)] = fresh.input_w;
    cdu_wall_w_[static_cast<std::size_t>(config_.cdu_of_rack(r))] +=
        fresh.input_w - old.input_w;
    rack_results_[static_cast<std::size_t>(r)] = fresh;
    rack_dirty_[static_cast<std::size_t>(r)] = 0;
  }
  dirty_racks_.clear();
}
// exadigit-hot-end

void RapsPowerModel::fold_all_racks() {
  std::fill(cdu_wall_w_.begin(), cdu_wall_w_.end(), 0.0);
  total_input_w_ = 0.0;
  total_output_w_ = 0.0;
  switch_output_w_ = 0.0;
  rect_loss_w_ = 0.0;
  sivoc_loss_w_ = 0.0;
  for (int r = 0; r < config_.rack_count; ++r) {
    const RackPowerResult& rack = rack_results_[static_cast<std::size_t>(r)];
    rack_wall_w_[static_cast<std::size_t>(r)] = rack.input_w;
    cdu_wall_w_[static_cast<std::size_t>(config_.cdu_of_rack(r))] += rack.input_w;
    total_input_w_ += rack.input_w;
    total_output_w_ += rack.node_output_w;
    switch_output_w_ += rack.switch_output_w;
    rect_loss_w_ += rack.rectifier_loss_w;
    sivoc_loss_w_ += rack.sivoc_loss_w;
    rack_dirty_[static_cast<std::size_t>(r)] = 0;
  }
  dirty_racks_.clear();
}

void RapsPowerModel::fill_sample(double now) {
  sample_.time_s = now;
  sample_.node_output_w = total_output_w_;
  sample_.rectifier_loss_w = rect_loss_w_;
  sample_.sivoc_loss_w = sivoc_loss_w_;
  sample_.system_power_w =
      total_input_w_ +
      config_.cooling.cdu.pump_avg_w * static_cast<double>(config_.cdu_count);
  sample_.eta_system =
      total_input_w_ > 0.0 ? (total_output_w_ + switch_output_w_) / total_input_w_ : 1.0;
  sample_.active_nodes = active_nodes_;
}

const PowerSample& RapsPowerModel::recompute(double now,
                                             std::span<const RunningJobView> running) {
  // Full rebuild; any incrementally registered jobs are dropped.
  active_.clear();
  free_slots_.clear();
  for (std::vector<GroupOccupant>& occupants : group_occupants_) occupants.clear();
  std::fill(group_dirty_.begin(), group_dirty_.end(), 0);
  dirty_groups_.clear();
  group_output_w_ = idle_group_output_w_;
  active_nodes_ = 0;
  for (const auto& view : running) {
    require(view.job != nullptr && view.nodes != nullptr, "null running job view");
    const NodeConfig& cfg = node_config_for(*view.job);
    const JobRecord::Utilization u =
        view.job->utilization_at(now - view.start_time_s, config_.simulation.trace_quantum_s);
    const double p_node = cfg.power_w(u.cpu, u.gpu);
    active_nodes_ += static_cast<int>(view.nodes->size());
    for (const int node : *view.nodes) {
      group_output_w_[static_cast<std::size_t>(node / nodes_per_group_)] +=
          p_node - idle_node_w_[static_cast<std::size_t>(node)];
    }
  }
  // Racks by the exact reference, which also stores each group's
  // conversion of its rebuilt load (one conversion per group), so a later
  // advance() sums consistent state.
  const std::size_t per_rack = static_cast<std::size_t>(groups_per_rack_);
  for (int r = 0; r < config_.rack_count; ++r) {
    const std::size_t first = static_cast<std::size_t>(r) * per_rack;
    rack_results_[static_cast<std::size_t>(r)] = rack_model_.from_group_outputs(
        std::span<const double>(group_output_w_.data() + first, per_rack),
        std::span<GroupConversion>(group_conv_.data() + first, per_rack));
  }
  fold_all_racks();
  fill_sample(now);
  return sample_;
}

std::vector<double> RapsPowerModel::cdu_heat_w() const {
  std::vector<double> heat(cdu_wall_w_.size());
  for (std::size_t i = 0; i < heat.size(); ++i) {
    heat[i] = cdu_wall_w_[i] * config_.cooling.cooling_efficiency;
  }
  return heat;
}

}  // namespace exadigit
