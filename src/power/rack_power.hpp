#pragma once

/// @file rack_power.hpp
/// Rack-level power aggregation (paper Eq. (4) within a rack).
///
/// RackPowerModel turns per-group 48 V loads into wall power for a rack:
/// each rectifier group's load flows through the conversion chain, and
/// the rack's 32 Slingshot switches draw through the rectifier stage.
/// RapsPowerModel (raps/power_model.hpp) sums the racks and the CDU pumps
/// into the paper's P_system, and uniform_load_power there derives the
/// Fig. 4 breakdown from it.
///
/// A rack sums either fresh conversions of its group loads
/// (from_group_outputs, the exact reference) or conversions its caller
/// already holds (from_group_conversions, run-length accumulation). The
/// incremental RAPS power model takes the second path: it keeps each
/// group's GroupConversion and converts a group only when its load
/// changes, so no cache of conversions by value is needed.

#include <span>

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

}  // namespace exadigit
