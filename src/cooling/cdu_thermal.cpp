#include "cooling/cdu_thermal.hpp"

#include <cmath>
#include <cstring>

#include "cooling/fluid.hpp"
#include "cooling/heat_exchanger.hpp"

namespace exadigit {

namespace {

/// Two doubles, one per lane.
using f64x2 = double __attribute__((vector_size(16)));

f64x2 load(const std::vector<double>& column, std::size_t i) {
  f64x2 v;
  std::memcpy(&v, column.data() + i, sizeof v);
  return v;
}

void store(std::vector<double>& column, std::size_t i, f64x2 v) {
  std::memcpy(column.data() + i, &v, sizeof v);
}

/// coolant_rho_cp(Coolant::kWater, t_c) per lane: the clamp and the two
/// quadratic fits of fluid_detail, operation for operation.
f64x2 water_rho_cp(f64x2 t_c) {
  const f64x2 lo = {0.0, 0.0};
  const f64x2 hi = {90.0, 90.0};
  const f64x2 t = t_c < lo ? lo : (hi < t_c ? hi : t_c);  // std::clamp
  const f64x2 density = 1001.2 - 0.075 * t - 0.00375 * t * t;
  const f64x2 cp = 4209.0 - 1.31 * t + 0.014 * t * t;
  return density * cp;
}

}  // namespace

CduColumns::CduColumns(std::size_t cdus)
    : t_supply_c(cdus),
      t_return_c(cdus),
      q_sec_m3s(cdus),
      q_branch_m3s(cdus),
      heat_w(cdus),
      sec_rate(cdus),
      duty_w(cdus),
      pri_return_c(cdus),
      rho_cp_(cdus),
      c_sec_(cdus),
      c_pri_(cdus),
      c_min_(cdus),
      c_r_(cdus),
      exp_(cdus),
      pair_general_(cdus / 2) {}

// exadigit-hot-begin(cdu-thermal-lanes)
void CduColumns::scalar_lane(std::size_t i, double ua_w_per_k, double half_volume_m3,
                             double t_pri_supply_c, double rho_cp_pri_supply, double h) {
  const double rho_cp = coolant_rho_cp(Coolant::kWater, t_return_c[i]);
  const double c_sec = rho_cp * q_sec_m3s[i];
  const double c_pri = rho_cp_pri_supply * q_branch_m3s[i];
  const HxResult hx =
      evaluate_counterflow_hx(ua_w_per_k, t_return_c[i], c_sec, t_pri_supply_c, c_pri);
  const double d_supply = sec_rate[i] * (hx.hot_out_c - t_supply_c[i]);
  const double d_return =
      sec_rate[i] * (t_supply_c[i] - t_return_c[i]) + heat_w[i] / (rho_cp * half_volume_m3);
  t_supply_c[i] += h * d_supply;
  t_return_c[i] += h * d_return;
  duty_w[i] = hx.duty_w;
  pri_return_c[i] = hx.cold_out_c;
}

double CduColumns::substep(double ua_w_per_k, double half_volume_m3, double t_pri_supply_c,
                           double h) {
  const std::size_t n = size();
  const std::size_t paired = n - n % 2;
  const double rho_cp_pri_supply = coolant_rho_cp(Coolant::kWater, t_pri_supply_c);

  // Pass 1: the capacity rates, NTU, C_r and the exponent argument, as
  // evaluate_counterflow_hx and counterflow_effectiveness compute them.
  for (std::size_t i = 0; i < paired; i += 2) {
    const f64x2 rho_cp = water_rho_cp(load(t_return_c, i));
    const f64x2 c_sec = rho_cp * load(q_sec_m3s, i);
    const f64x2 c_pri = rho_cp_pri_supply * load(q_branch_m3s, i);
    const f64x2 c_min = c_pri < c_sec ? c_pri : c_sec;  // std::min(c_sec, c_pri)
    const f64x2 c_max = c_sec < c_pri ? c_pri : c_sec;  // std::max(c_sec, c_pri)
    const f64x2 ntu = ua_w_per_k / c_min;
    const f64x2 c_r = c_min / c_max;
    const f64x2 one_minus_c_r = 1.0 - c_r;
    // The general branch: both sides wet, NTU > 0, C_r in [1e-12, 1 + 1e-12]
    // and not within 1e-9 of 1. A NaN fails every comparison and falls back.
    const auto general = (c_sec > 0.0) & (c_pri > 0.0) & (ntu > 0.0) & (c_r >= 1e-12) &
                         (c_r <= 1.0 + 1e-12) &
                         ((one_minus_c_r >= 1e-9) | (one_minus_c_r <= -1e-9));
    pair_general_[i / 2] = general[0] != 0 && general[1] != 0;
    store(rho_cp_, i, rho_cp);
    store(c_sec_, i, c_sec);
    store(c_pri_, i, c_pri);
    store(c_min_, i, c_min);
    store(c_r_, i, c_r);
    store(exp_, i, -ntu * one_minus_c_r);
  }

  for (std::size_t i = 0; i < paired; ++i) {
    if (pair_general_[i / 2]) exp_[i] = std::exp(exp_[i]);
  }

  // Pass 2: effectiveness, duty, outlets and the explicit volume updates.
  const f64x2 zero = {0.0, 0.0};
  for (std::size_t i = 0; i < paired; i += 2) {
    if (!pair_general_[i / 2]) {
      scalar_lane(i, ua_w_per_k, half_volume_m3, t_pri_supply_c, rho_cp_pri_supply, h);
      scalar_lane(i + 1, ua_w_per_k, half_volume_m3, t_pri_supply_c, rho_cp_pri_supply, h);
      continue;
    }
    const f64x2 e = load(exp_, i);
    const f64x2 c_r = load(c_r_, i);
    const f64x2 eff = (1.0 - e) / (1.0 - c_r * e);
    const f64x2 hot_in = load(t_return_c, i);
    const f64x2 duty = eff * load(c_min_, i) * (hot_in - t_pri_supply_c);
    const f64x2 q = zero < duty ? duty : zero;  // std::max(0.0, duty)
    const f64x2 hot_out = hot_in - q / load(c_sec_, i);
    const f64x2 cold_out = t_pri_supply_c + q / load(c_pri_, i);
    const f64x2 t_supply = load(t_supply_c, i);
    const f64x2 rate = load(sec_rate, i);
    const f64x2 d_supply = rate * (hot_out - t_supply);
    const f64x2 d_return =
        rate * (t_supply - hot_in) + load(heat_w, i) / (load(rho_cp_, i) * half_volume_m3);
    store(t_supply_c, i, t_supply + h * d_supply);
    store(t_return_c, i, hot_in + h * d_return);
    store(duty_w, i, q);
    store(pri_return_c, i, cold_out);
  }
  if (paired < n) {
    scalar_lane(n - 1, ua_w_per_k, half_volume_m3, t_pri_supply_c, rho_cp_pri_supply, h);
  }

  double mix = 0.0;
  for (std::size_t i = 0; i < n; ++i) mix += q_branch_m3s[i] * pri_return_c[i];
  return mix;
}
// exadigit-hot-end

}  // namespace exadigit
