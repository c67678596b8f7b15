#pragma once

/// @file rack_power.hpp
/// Rack- and system-level power aggregation (paper Eqs. (3)-(4)).
///
/// RackPowerModel turns per-node 48 V loads into wall power for a rack:
/// node power flows through the conversion chain per rectifier group, and
/// the rack's 32 Slingshot switches draw through the rectifier stage. The
/// SystemPowerModel adds CDU pump power and produces the paper's
/// P_system together with a component breakdown (Fig. 4).
///
/// A rack sums either fresh conversions of its group loads
/// (from_group_outputs, the exact reference) or conversions its caller
/// already holds (from_group_conversions, run-length accumulation). The
/// incremental RAPS power model takes the second path: it keeps each
/// group's GroupConversion and converts a group only when its load
/// changes, so no cache of conversions by value is needed.

#include <span>
#include <vector>

#include "config/system_config.hpp"
#include "power/conversion.hpp"

namespace exadigit {

/// Wall power and losses for one rack at one instant.
struct RackPowerResult {
  double node_output_w = 0.0;     ///< sum of 48 V node loads
  double switch_output_w = 0.0;   ///< switch loads (DC side)
  double input_w = 0.0;           ///< wall power including all losses
  double rectifier_loss_w = 0.0;
  double sivoc_loss_w = 0.0;
  bool any_overload = false;
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

/// The part of one rectifier group's ConversionResult that a rack sum
/// reads. The incremental RAPS power model keeps one per group, for the
/// group's current load, and re-converts a group only when its load
/// changes.
struct GroupConversion {
  double output_w = 0.0;  ///< the group's 48 V load (ConversionResult::output_w)
  double input_w = 0.0;
  double rectifier_loss_w = 0.0;
  double sivoc_loss_w = 0.0;
  bool overloaded = false;

  [[nodiscard]] static GroupConversion of(const ConversionResult& c) {
    return GroupConversion{c.output_w, c.input_w, c.rectifier_loss_w, c.sivoc_loss_w,
                           c.overloaded};
  }
};

/// Conversion-aware rack power model.
class RackPowerModel {
 public:
  RackPowerModel(const RackConfig& rack, const PowerChainConfig& chain);

  /// Wall power for a rack whose rectifier groups deliver the node-side
  /// loads in `group_outputs_w` (size must equal groups per rack). The
  /// exact reference: one chain evaluation per group, accumulated group by
  /// group. A non-empty `conversions` (one slot per group) receives each
  /// group's conversion.
  [[nodiscard]] RackPowerResult from_group_outputs(
      std::span<const double> group_outputs_w,
      std::span<GroupConversion> conversions = {}) const;

  /// Wall power for a rack from its groups' stored conversions (size must
  /// equal groups per rack). Runs of adjacent groups with the same exact
  /// load add the run's conversion times the run length, in group order,
  /// so the rounding may differ from from_group_outputs in the last ulp
  /// but is fixed for a given set of loads.
  [[nodiscard]] RackPowerResult from_group_conversions(
      std::span<const GroupConversion> groups) const;

  /// Wall power for a rack with a uniform per-node 48 V load. Fast path for
  /// full-system sweeps (all groups identical).
  [[nodiscard]] RackPowerResult from_uniform_node_power(double node_output_w,
                                                        int active_nodes) const;

  [[nodiscard]] int groups_per_rack() const { return groups_per_rack_; }
  [[nodiscard]] int nodes_per_group() const { return nodes_per_group_; }
  [[nodiscard]] const ConversionChain& chain() const { return chain_; }

 private:
  RackConfig rack_;
  ConversionChain chain_;
  int groups_per_rack_;
  int nodes_per_group_;

  void add_switches(RackPowerResult& result) const;
};

/// System-level aggregation: sums racks and the constant CDU pump cost
/// (paper Section III-B2: 8.7 kW x 25 CDUs = 217.5 kW).
class SystemPowerModel {
 public:
  explicit SystemPowerModel(const SystemConfig& config);

  /// P_system for a machine with every node at the given utilizations.
  [[nodiscard]] double uniform_system_power_w(double cpu_util, double gpu_util) const;

  /// Component breakdown at the given uniform utilizations (Fig. 4).
  [[nodiscard]] PowerBreakdown breakdown(double cpu_util, double gpu_util) const;

  /// Total CDU pump power (constant in RAPS).
  [[nodiscard]] double cdu_pump_power_w() const;

  [[nodiscard]] const RackPowerModel& rack_model() const { return rack_model_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  RackPowerModel rack_model_;
};

}  // namespace exadigit
