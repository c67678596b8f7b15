#pragma once

/// @file heat_exchanger.hpp
/// Counterflow heat exchanger via the effectiveness-NTU method.
///
/// HEX-1600 units couple each CDU's secondary loop to the primary HTW loop,
/// and the EHX bank couples the primary loop to the cooling-tower loop
/// (paper Fig. 5). System-level models resolve these with ε-NTU rather
/// than discretized cores, exactly like the paper's Modelica components.
///
/// The plant evaluates its 25 CDU HEX units two at a time in
/// cooling/cdu_thermal.hpp, with the operations of
/// evaluate_counterflow_hx in the same order. A unit outside the general
/// ε-NTU branch calls evaluate_counterflow_hx itself.

namespace exadigit {

/// Result of one heat-exchanger evaluation.
struct HxResult {
  double duty_w = 0.0;        ///< heat moved hot -> cold (>= 0)
  double hot_out_c = 0.0;
  double cold_out_c = 0.0;
  double effectiveness = 0.0;
};

/// Counterflow effectiveness for the given NTU and capacity ratio
/// Cr = Cmin/Cmax in [0, 1].
[[nodiscard]] double counterflow_effectiveness(double ntu, double cr);

/// Evaluates a counterflow HX with conductance `ua_w_per_k` between a hot
/// stream (inlet `hot_in_c`, capacity rate `c_hot` W/K) and a cold stream.
/// Zero or negative capacity rates yield zero duty (a dry side).
[[nodiscard]] HxResult evaluate_counterflow_hx(double ua_w_per_k, double hot_in_c,
                                               double c_hot_w_per_k, double cold_in_c,
                                               double c_cold_w_per_k);

}  // namespace exadigit
