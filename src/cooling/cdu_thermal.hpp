#pragma once

/// @file cdu_thermal.hpp
/// The plant's CDU loops as structure-of-arrays columns, and their explicit
/// thermal substep evaluated two CDUs at a time.
///
/// Each CDU loop is a supply and a return finite volume joined by its
/// HEX-1600 (a counterflow ε-NTU exchanger, heat_exchanger.hpp) to one
/// branch of the primary loop. CduColumns::substep advances every loop in
/// three passes over the columns:
///   1. a lane pass for ρc_p, both capacity rates, C_min / C_max, NTU, C_r
///      and the exponent argument;
///   2. one scalar std::exp per lane;
///   3. a lane pass for the effectiveness, the duty, both outlets and the
///      two volume updates;
/// and then folds the primary-side mix in ascending CDU order.
///
/// A lane pass runs on GCC/Clang vector types of two doubles, which the
/// x86-64 baseline (SSE2) executes as packed operations: `objdump -d` of
/// cdu_thermal.cpp's object file shows mulpd, divpd, subpd and addpd.
///
/// Bit-identical to the scalar reference (evaluate_counterflow_hx plus the
/// plant's volume update, ThermalEval::kScalar). Each lane performs the
/// reference's IEEE double operations in the reference's order, and a packed
/// operation rounds each element exactly as its scalar form does. The build
/// uses no -ffast-math and no FMA contraction, and the exponential stays the
/// scalar libm std::exp: a vector exp (libmvec) rounds differently. A pair
/// of lanes where either lane leaves the general ε-NTU branch (a dry side,
/// NTU = 0, C_r < 1e-12, |1 − C_r| < 1e-9, or a failed NTU or C_r check),
/// and the last CDU of an odd count, run evaluate_counterflow_hx itself, so
/// they keep its limits and its error messages.

#include <cstddef>
#include <vector>

namespace exadigit {

/// One column per quantity, one element per CDU. The temperatures are the
/// loops' state; the loads hold for one plant step; the results are those
/// of the latest substep.
class CduColumns {
 public:
  explicit CduColumns(std::size_t cdus = 0);

  [[nodiscard]] std::size_t size() const { return t_supply_c.size(); }

  /// Advances every loop by `h` seconds. `ua_w_per_k` is each HEX's
  /// conductance, `half_volume_m3` half a loop's volume (the volume of
  /// one finite volume), and `t_pri_supply_c` the primary supply that
  /// feeds every HEX's cold side. Returns the sum over the CDUs, in
  /// ascending order, of q_branch · pri_return_c. Throws as
  /// evaluate_counterflow_hx does, having advanced the CDUs before the
  /// failing one.
  double substep(double ua_w_per_k, double half_volume_m3, double t_pri_supply_c, double h);

  // State.
  std::vector<double> t_supply_c;  ///< supply volume (station 15)
  std::vector<double> t_return_c;  ///< return volume (station 13), the HEX hot inlet
  // Loads of one plant step.
  std::vector<double> q_sec_m3s;     ///< secondary loop flow
  std::vector<double> q_branch_m3s;  ///< primary branch flow, the HEX cold side
  std::vector<double> heat_w;        ///< rack heat into the return volume
  std::vector<double> sec_rate;      ///< q_sec / half_volume_m3 (1/s), divided once per step
  // Results of the latest substep.
  std::vector<double> duty_w;        ///< HEX duty
  std::vector<double> pri_return_c;  ///< HEX cold-side outlet

 private:
  /// One lane through evaluate_counterflow_hx and the volume update.
  void scalar_lane(std::size_t i, double ua_w_per_k, double half_volume_m3,
                   double t_pri_supply_c, double rho_cp_pri_supply, double h);

  // Pass 1 results, read by pass 2; `exp_` holds the exponent argument
  // until the exp pass replaces it.
  std::vector<double> rho_cp_;
  std::vector<double> c_sec_;
  std::vector<double> c_pri_;
  std::vector<double> c_min_;
  std::vector<double> c_r_;
  std::vector<double> exp_;
  /// Per pair of lanes: both lanes take the general ε-NTU branch.
  std::vector<unsigned char> pair_general_;
};

}  // namespace exadigit
