#pragma once

/// @file conversion.hpp
/// The rack power-distribution and voltage-conversion chain (paper Fig. 3,
/// Eqs. (1)-(2), Section III-B1).
///
/// Three-phase AC enters the rack and feeds 32 active rectifiers; groups of
/// four rectifiers share a common 380 V DC bus powering eight blades; each
/// blade's two SIVOC DC-DC converters step 380 V down to 48 V at the node.
/// This module computes input power, per-stage losses, and efficiencies for
/// a conversion *group* (the paper's chassis-level unit), including:
///  - shared-bus load sharing (baseline) and smart staging (what-if 1),
///  - direct 380 V DC feed (what-if 2),
///  - rectifier-failure ride-through on the shared DC bus.
///
/// convert() is the reference for one group. convert_batch() converts many
/// groups' loads two per packed operation (GCC vector extensions, SSE2
/// baseline, no FMA) with convert()'s operations in convert()'s order, so
/// every field it writes has convert()'s bits. Its segment search is
/// branch free: the segment of x is the count of interior knots <= x,
/// which is the index the curve's linear scan stops at.

#include <span>
#include <vector>

#include "config/system_config.hpp"

namespace exadigit {

/// Losses and efficiencies for one rectifier group at one instant.
struct ConversionResult {
  double output_w = 0.0;            ///< P_S48V: power delivered to nodes
  double rectifier_output_w = 0.0;  ///< P_RDC: shared DC bus power
  double input_w = 0.0;             ///< P_RAC: wall power drawn by the group
  double rectifier_loss_w = 0.0;    ///< P_LR
  double sivoc_loss_w = 0.0;        ///< P_LS
  double eta_rectifier = 1.0;       ///< eta_R
  double eta_sivoc = 1.0;           ///< eta_S
  double eta_chain = 1.0;           ///< eta_system = eta_R * eta_S (Eq. 1)
  int staged_rectifiers = 0;        ///< active rectifiers carrying load
  bool overloaded = false;          ///< per-unit load exceeded nameplate
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

/// Conversion model for one rectifier group (4 rectifiers + 16 SIVOCs).
class ConversionChain {
 public:
  explicit ConversionChain(const PowerChainConfig& config);

  /// Computes the chain state for a group delivering `group_output_w` at
  /// the 48 V node side. `failed_rectifiers` marks units lost to failure:
  /// the shared DC bus redistributes load over the survivors (paper: blades
  /// "perform their job without any interruption").
  [[nodiscard]] ConversionResult convert(double group_output_w,
                                         int failed_rectifiers = 0) const;

  /// Converts every load of `group_outputs_w` into the same slot of `out`
  /// (equal sizes) with no failed rectifiers: slot i receives
  /// GroupConversion::of(convert(group_outputs_w[i])), bit for bit. Loads
  /// go two per packed operation when the chain is a shared bus or a DC
  /// feed whose curves clamp and have two knots or more; otherwise, and
  /// for any pair holding a load convert() rejects (negative or NaN), each
  /// load goes through convert(), so such a load throws convert()'s error.
  void convert_batch(std::span<const double> group_outputs_w,
                     std::span<GroupConversion> out) const;

  /// Eq. (1): total conversion efficiency at this operating point.
  [[nodiscard]] double system_efficiency(double group_output_w) const;

  /// Input (wall) power for the given node-side output.
  [[nodiscard]] double input_power_w(double group_output_w) const;

  [[nodiscard]] const PowerChainConfig& config() const { return config_; }

 private:
  /// One segment of a curve: x_lo, x_hi - x_lo, y_lo and y_hi - y_lo (the
  /// differences the scalar curve forms on each call).
  struct LaneSegment {
    double x_lo = 0.0, dx = 0.0, y_lo = 0.0, dy = 0.0;
  };
  /// A curve laid out for the packed kernel: its segments (the x_lo of
  /// every segment after the first is an interior knot) and its clamp
  /// bounds.
  struct LaneCurve {
    std::vector<LaneSegment> segments;
    double x_first = 0.0, x_last = 0.0, y_first = 0.0, y_last = 0.0;

    explicit LaneCurve(const PiecewiseLinearCurve& curve);
  };

  PowerChainConfig config_;
  /// True when convert_batch runs the packed kernel (see convert_batch).
  bool packed_ = false;
  LaneCurve sivoc_lanes_;
  LaneCurve rectifier_lanes_;
  double sivoc_capacity_w_ = 0.0;  ///< 2 x blades_per_group x sivoc_rated_w

  [[nodiscard]] int staged_for(double rectifier_output_w, int available) const;
};

}  // namespace exadigit
