#include "cooling/heat_exchanger.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

double counterflow_effectiveness(double ntu, double cr) {
  require(ntu >= 0.0, "NTU must be non-negative");
  require(cr >= 0.0 && cr <= 1.0 + 1e-12, "capacity ratio must be in [0,1]");
  if (ntu == 0.0) return 0.0;
  if (cr < 1e-12) {
    // One stream effectively isothermal (condenser/evaporator limit).
    return 1.0 - std::exp(-ntu);
  }
  if (std::abs(1.0 - cr) < 1e-9) {
    // Balanced counterflow limit.
    return ntu / (1.0 + ntu);
  }
  const double e = std::exp(-ntu * (1.0 - cr));
  return (1.0 - e) / (1.0 - cr * e);
}

HxResult evaluate_counterflow_hx(double ua_w_per_k, double hot_in_c, double c_hot_w_per_k,
                                 double cold_in_c, double c_cold_w_per_k) {
  require(ua_w_per_k >= 0.0, "UA must be non-negative");
  HxResult r;
  r.hot_out_c = hot_in_c;
  r.cold_out_c = cold_in_c;
  if (ua_w_per_k == 0.0 || c_hot_w_per_k <= 0.0 || c_cold_w_per_k <= 0.0) {
    return r;
  }
  const double c_min = std::min(c_hot_w_per_k, c_cold_w_per_k);
  const double c_max = std::max(c_hot_w_per_k, c_cold_w_per_k);
  const double ntu = ua_w_per_k / c_min;
  const double eff = counterflow_effectiveness(ntu, c_min / c_max);
  const double q = std::max(0.0, eff * c_min * (hot_in_c - cold_in_c));
  r.duty_w = q;
  r.effectiveness = eff;
  r.hot_out_c = hot_in_c - q / c_hot_w_per_k;
  r.cold_out_c = cold_in_c + q / c_cold_w_per_k;
  return r;
}

}  // namespace exadigit
