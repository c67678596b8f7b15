#include "raps/power_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace exadigit {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void set_bit(std::vector<std::uint64_t>& bits, int index) {
  bits[static_cast<std::size_t>(index) >> 6] |= std::uint64_t{1} << (index & 63);
}

void clear_bit(std::vector<std::uint64_t>& bits, int index) {
  bits[static_cast<std::size_t>(index) >> 6] &= ~(std::uint64_t{1} << (index & 63));
}

/// Calls `visit(index)` for every set bit in ascending order and clears
/// the bitmap.
template <typename Visit>
void drain_bits(std::vector<std::uint64_t>& bits, Visit&& visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    bits[w] = 0;
    while (word != 0) {
      visit(static_cast<int>(w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

}  // namespace

RapsPowerModel::RapsPowerModel(const SystemConfig& config)
    : config_(config), rack_model_(config.rack, config.power) {
  config_.validate();
  groups_per_rack_ = rack_model_.groups_per_rack();
  nodes_per_group_ = rack_model_.nodes_per_group();
  const int total_nodes = config_.total_nodes();
  const int total_groups = config_.rack_count * groups_per_rack_;
  const std::size_t groups = static_cast<std::size_t>(total_groups);

  // Partitions own consecutive node ranges; the nodes after them are
  // default nodes.
  int cursor = 0;
  for (const auto& p : config_.partitions) {
    cursor = std::min(cursor + p.node_count, total_nodes);
    idle_ranges_.push_back(IdleRange{cursor, p.node.idle_power_w()});
  }
  idle_ranges_.push_back(IdleRange{total_nodes, config_.node.idle_power_w()});

  // Each group's idle load, summed group by group in node order. A group
  // inside one range holds nodes_per_group copies of one idle power, so
  // groups of equal idle power share one sum, and each distinct idle load
  // is converted once.
  group_node_idle_w_.resize(groups);
  idle_group_output_w_.resize(groups);
  idle_group_conv_.resize(groups);
  std::size_t range = 0;
  double sum_of = kNaN;  // the node idle power `sum` belongs to
  double sum = 0.0;
  GroupConversion conv;
  conv.output_w = kNaN;
  for (std::size_t g = 0; g < groups; ++g) {
    const int first = static_cast<int>(g) * nodes_per_group_;
    while (idle_ranges_[range].end <= first) ++range;
    double load = 0.0;
    if (first + nodes_per_group_ <= idle_ranges_[range].end) {
      const double idle = idle_ranges_[range].idle_w;
      group_node_idle_w_[g] = idle;
      if (idle != sum_of) {
        sum = 0.0;
        for (int i = 0; i < nodes_per_group_; ++i) sum += idle;
        sum_of = idle;
      }
      load = sum;
    } else {
      group_node_idle_w_[g] = kNaN;
      for (int node = first; node < first + nodes_per_group_; ++node) load += node_idle_w(node);
    }
    idle_group_output_w_[g] = load;
    if (load != conv.output_w) conv = GroupConversion::of(rack_model_.chain().convert(load));
    idle_group_conv_[g] = conv;
  }
  group_output_w_ = idle_group_output_w_;
  group_conv_ = idle_group_conv_;
  group_occupants_.resize(groups);
  group_owner_.assign(groups, -1);
  rack_owner_.assign(static_cast<std::size_t>(config_.rack_count), -1);
  group_dirty_.assign((groups + 63) / 64, 0);
  queued_.resize(groups);
  batch_load_.resize(groups);
  batch_kept_.resize(groups);
  batch_conv_.resize(groups);
  rack_dirty_.assign((static_cast<std::size_t>(config_.rack_count) + 63) / 64, 0);
  rack_wall_w_.assign(static_cast<std::size_t>(config_.rack_count), 0.0);
  cdu_wall_w_.assign(static_cast<std::size_t>(config_.cdu_count), 0.0);
  rack_results_.resize(static_cast<std::size_t>(config_.rack_count));
  for (int r = 0; r < config_.rack_count; ++r) {
    rack_results_[static_cast<std::size_t>(r)] = evaluate_rack(r);
  }
  fold_all_racks();
}

double RapsPowerModel::node_idle_w(int node) const {
  const double uniform = group_node_idle_w_[static_cast<std::size_t>(node / nodes_per_group_)];
  if (!std::isnan(uniform)) return uniform;
  for (const IdleRange& r : idle_ranges_) {
    if (node < r.end) return r.idle_w;
  }
  return idle_ranges_.back().idle_w;
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

int RapsPowerModel::acquire_slot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  jobs_.emplace_back();
  state_.push_back(SlotState::kFree);
  if (jobs_.size() > live_.size() * 64) live_.push_back(0);
  applied_w_.push_back(kNaN);
  sole_conv_.emplace_back();
  lead_conv_.emplace_back();
  shared_rack_.emplace_back();
  return static_cast<int>(jobs_.size()) - 1;
}

int RapsPowerModel::on_job_start(const JobRecord& job, const std::vector<int>& nodes,
                                 double start_time_s) {
  const NodeConfig& cfg = node_config_for(job);  // resolved once; throws early
  // One occupant entry per touched group, entered once per run of nodes in
  // the group (no divide per node), nodes counted and idle powers summed in
  // allocation order. A group's newest entry is this job's while it is
  // being registered, so non-contiguous nodes fold into one entry.
  const int slot = acquire_slot();
  touched_.clear();
  int begin = 0;
  int end = 0;  // node range of the group being filled
  double uniform_idle_w = 0.0;
  GroupOccupant* entry = nullptr;
  for (const int node : nodes) {
    if (node < begin || node >= end) {
      const int group = node >= 0 && node < config_.total_nodes() ? node / nodes_per_group_ : -1;
      if (group < 0 || group_owner_[static_cast<std::size_t>(group)] >= 0) {
        // Undo this call's entries, so a rejected start changes nothing.
        for (const int g : touched_) group_occupants_[static_cast<std::size_t>(g)].pop_back();
        free_slots_.push_back(slot);
        throw ConfigError("on_job_start: node " + std::to_string(node) +
                          (group < 0 ? " is out of range"
                                     : " is in a group another running job holds whole"));
      }
      begin = group * nodes_per_group_;
      end = begin + nodes_per_group_;
      uniform_idle_w = group_node_idle_w_[static_cast<std::size_t>(group)];
      std::vector<GroupOccupant>& occupants = group_occupants_[static_cast<std::size_t>(group)];
      if (occupants.empty() || occupants.back().slot != slot) {
        occupants.push_back(GroupOccupant{slot, 0, 0.0});
        touched_.push_back(group);
      }
      entry = &occupants.back();
    }
    entry->count += 1;
    entry->idle_sum_w += std::isnan(uniform_idle_w) ? node_idle_w(node) : uniform_idle_w;
  }

  // A group whose every node is the job's leaves the occupant lists: the
  // job writes its load and conversion itself.
  const std::size_t s = static_cast<std::size_t>(slot);
  ActiveJob& a = jobs_[s];
  a.full.clear();
  a.partial.clear();
  a.nodes = 0;
  for (const int group : touched_) {
    const std::size_t g = static_cast<std::size_t>(group);
    std::vector<GroupOccupant>& occupants = group_occupants_[g];
    const GroupOccupant own = occupants.back();
    a.nodes += own.count;
    if (own.count != nodes_per_group_ || occupants.size() != 1) {
      a.partial.push_back(group);
      set_bit(group_dirty_, group);
      continue;
    }
    occupants.pop_back();
    group_owner_[g] = slot;
    // A job stopped earlier in this sample may have marked it; its new
    // owner writes it at the next advance().
    clear_bit(group_dirty_, group);
    const double base_w = idle_group_output_w_[g] - own.idle_sum_w;
    if (!a.full.empty() && a.full.back().first + a.full.back().count == group &&
        a.full.back().base_w == base_w) {
      ++a.full.back().count;
    } else {
      a.full.push_back(FullRun{group, 1, base_w});
    }
  }
  for (const FullRun& run : a.full) own_covered_racks(run, slot);

  a.job = job;
  a.start_time_s = start_time_s;
  a.node_cfg = &cfg;
  state_[s] = SlotState::kHeld;
  set_bit(live_, slot);
  applied_w_[s] = kNaN;                // the first advance() writes every group
  sole_conv_[s].conv.output_w = kNaN;  // matches no load
  lead_conv_[s].conv.output_w = kNaN;
  shared_rack_[s].load_w = kNaN;
  active_nodes_ += a.nodes;
  return slot;
}

void RapsPowerModel::own_covered_racks(const FullRun& run, int owner) {
  // The racks whose every group lies in the run carry one load in every
  // group, so they can share one rack result.
  const int first_rack = (run.first + groups_per_rack_ - 1) / groups_per_rack_;
  const int end_rack = (run.first + run.count) / groups_per_rack_;
  for (int r = first_rack; r < end_rack; ++r) rack_owner_[static_cast<std::size_t>(r)] = owner;
}

void RapsPowerModel::on_job_stop(int handle) {
  require(handle >= 0 && handle < static_cast<int>(jobs_.size()) &&
              state_[static_cast<std::size_t>(handle)] != SlotState::kFree,
          "on_job_stop: invalid or already-stopped job handle");
  const std::size_t s = static_cast<std::size_t>(handle);
  ActiveJob& a = jobs_[s];
  for (const FullRun& run : a.full) {
    own_covered_racks(run, -1);
    for (int group = run.first; group < run.first + run.count; ++group) {
      group_owner_[static_cast<std::size_t>(group)] = -1;
      set_bit(group_dirty_, group);
    }
  }
  for (const int group : a.partial) {
    std::vector<GroupOccupant>& occupants = group_occupants_[static_cast<std::size_t>(group)];
    const auto it = std::find_if(occupants.begin(), occupants.end(),
                                 [handle](const GroupOccupant& o) { return o.slot == handle; });
    occupants.erase(it);  // keeps the other occupants' summation order
    set_bit(group_dirty_, group);
  }
  active_nodes_ -= a.nodes;
  state_[s] = SlotState::kFree;
  clear_bit(live_, handle);
  a.job = JobRecord{};
  a.full.clear();
  a.partial.clear();
  a.node_cfg = nullptr;
  free_slots_.push_back(handle);
}

// exadigit-hot-begin(power-advance)
const PowerSample& RapsPowerModel::advance(double now) {
  const double quantum_s = config_.simulation.trace_quantum_s;
  const double group_nodes = static_cast<double>(nodes_per_group_);
  // The live slots in ascending order, as a walk of every slot visits them.
  for (std::size_t w = 0; w < live_.size(); ++w) {
    for (std::uint64_t word = live_[w]; word != 0; word &= word - 1) {
      const std::size_t s = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const ActiveJob& a = jobs_[s];
      const JobRecord::Utilization u = a.job.utilization_at(now - a.start_time_s, quantum_s);
      const double p = a.node_cfg->power_w(u.cpu, u.gpu);  // Eq. (3)
      if (u.settled) clear_bit(live_, static_cast<int>(s));
      if (p == applied_w_[s]) continue;
      applied_w_[s] = p;
      write_full_groups(s, group_nodes * p);
      for (const int group : a.partial) set_bit(group_dirty_, group);
    }
  }
  refresh_dirty_groups();
  refresh_dirty_racks();
  fill_sample(now);
  return sample_;
}

void RapsPowerModel::write_full_groups(std::size_t slot, double busy_w) {
  // A run's groups carry one load, and so do all runs of one base (every
  // run of an ascending allocation), so they share one conversion.
  GroupConversion& conv = sole_conv_[slot].conv;
  for (const FullRun& run : jobs_[slot].full) {
    const double load = run.base_w + busy_w;
    for (int group = run.first; group < run.first + run.count; ++group) {
      const std::size_t g = static_cast<std::size_t>(group);
      if (load == group_output_w_[g]) continue;
      group_output_w_[g] = load;
      if (conv.output_w != load) conv = GroupConversion::of(rack_model_.chain().convert(load));
      group_conv_[g] = conv;
      set_bit(rack_dirty_, group / groups_per_rack_);
    }
  }
}

void RapsPowerModel::refresh_dirty_groups() {
  // 1. Re-sum each dirty group and resolve the loads a kept conversion
  //    covers; queue the rest.
  std::size_t queued = 0;   // groups waiting for a conversion
  std::size_t entries = 0;  // the loads they wait for
  drain_bits(group_dirty_, [&](int group) {
    const std::size_t g = static_cast<std::size_t>(group);
    const std::vector<GroupOccupant>& occupants = group_occupants_[g];
    double occupied_idle_w = 0.0;
    double busy_w = 0.0;
    for (const GroupOccupant& o : occupants) {
      occupied_idle_w += o.idle_sum_w;
      busy_w += static_cast<double>(o.count) * applied_w_[static_cast<std::size_t>(o.slot)];
    }
    const double load = (idle_group_output_w_[g] - occupied_idle_w) + busy_w;
    // An unchanged load keeps its conversion and leaves the rack as it is.
    if (load == group_output_w_[g]) return;
    group_output_w_[g] = load;
    set_bit(rack_dirty_, group / groups_per_rack_);
    if (load == idle_group_output_w_[g]) {
      group_conv_[g] = idle_group_conv_[g];
      return;
    }
    // A group without occupants has exactly its idle load, so a loaded
    // group has a first occupant: it keeps the conversion for a group it
    // occupies alone, or for a shared group it leads. A queued refill names
    // its load at once, as a group-by-group pass would have stored it, so a
    // later group of that load waits for the same entry.
    const std::size_t first = static_cast<std::size_t>(occupants.front().slot);
    KeptConversion& kept = occupants.size() == 1 ? sole_conv_[first] : lead_conv_[first];
    if (kept.conv.output_w != load) {
      kept.conv.output_w = load;
      kept.entry = entries;
      batch_load_[entries] = load;
      batch_kept_[entries] = &kept;
      ++entries;
    } else if (kept.entry >= entries || batch_kept_[kept.entry] != &kept) {
      group_conv_[g] = kept.conv;  // stored before this pass
      return;
    }
    queued_[queued++] = QueuedGroup{group, kept.entry};
  });
  if (queued == 0) return;
  // 2. Convert the queued loads, two per packed operation.
  rack_model_.chain().convert_batch(std::span<const double>(batch_load_.data(), entries),
                                    std::span<GroupConversion>(batch_conv_.data(), entries));
  // 3. Store them in queue (ascending group) order, in the kept conversions
  //    they refill and in their groups.
  for (std::size_t e = 0; e < entries; ++e) batch_kept_[e]->conv = batch_conv_[e];
  for (std::size_t q = 0; q < queued; ++q) {
    group_conv_[static_cast<std::size_t>(queued_[q].group)] = batch_conv_[queued_[q].entry];
  }
}

RackPowerResult RapsPowerModel::evaluate_rack(int r) const {
  return rack_model_.from_group_conversions(std::span<const GroupConversion>(
      group_conv_.data() + static_cast<std::size_t>(r) * groups_per_rack_,
      static_cast<std::size_t>(groups_per_rack_)));
}

const RackPowerResult& RapsPowerModel::shared_rack(std::size_t slot, int r) {
  SharedRack& shared = shared_rack_[slot];
  const double load =
      group_output_w_[static_cast<std::size_t>(r) * static_cast<std::size_t>(groups_per_rack_)];
  if (shared.load_w != load) {
    shared.result = evaluate_rack(r);
    shared.load_w = load;
  }
  return shared.result;
}

void RapsPowerModel::refresh_dirty_racks() {
  // Ascending rack order fixes the accumulation (and its rounding)
  // independently of which job dirtied a rack first.
  drain_bits(rack_dirty_, [this](int r) {
    const std::size_t ri = static_cast<std::size_t>(r);
    const int owner = rack_owner_[ri];
    const RackPowerResult fresh =
        owner >= 0 ? shared_rack(static_cast<std::size_t>(owner), r) : evaluate_rack(r);
    const RackPowerResult& old = rack_results_[ri];
    total_input_w_ += fresh.input_w - old.input_w;
    total_output_w_ += fresh.node_output_w - old.node_output_w;
    switch_output_w_ += fresh.switch_output_w - old.switch_output_w;
    rect_loss_w_ += fresh.rectifier_loss_w - old.rectifier_loss_w;
    sivoc_loss_w_ += fresh.sivoc_loss_w - old.sivoc_loss_w;
    rack_wall_w_[ri] = fresh.input_w;
    cdu_wall_w_[static_cast<std::size_t>(config_.cdu_of_rack(r))] +=
        fresh.input_w - old.input_w;
    rack_results_[ri] = fresh;
  });
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
  }
  std::fill(rack_dirty_.begin(), rack_dirty_.end(), 0);
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
  jobs_.clear();
  state_.clear();
  live_.clear();
  applied_w_.clear();
  sole_conv_.clear();
  lead_conv_.clear();
  shared_rack_.clear();
  free_slots_.clear();
  for (std::vector<GroupOccupant>& occupants : group_occupants_) occupants.clear();
  std::fill(group_owner_.begin(), group_owner_.end(), -1);
  std::fill(rack_owner_.begin(), rack_owner_.end(), -1);
  std::fill(group_dirty_.begin(), group_dirty_.end(), 0);
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
          p_node - node_idle_w(node);
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
