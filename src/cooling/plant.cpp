#include "cooling/plant.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "cooling/fluid.hpp"
#include "cooling/heat_exchanger.hpp"

namespace exadigit {

namespace {

PidConfig cdu_pump_pid_config(const CduLoopConfig& cdu, const PumpConfig& pump) {
  // Pump dp responds ~ 2*H0*s per unit speed, several times the setpoint,
  // so proportional gain stays well under 1/setpoint to keep the sampled
  // loop gain below unity.
  PidConfig p;
  p.kp = 0.12 / cdu.loop_dp_setpoint_pa;
  p.ki = 0.015 / cdu.loop_dp_setpoint_pa;
  p.out_min = pump.min_speed;
  p.out_max = 1.0;
  return p;
}

PidConfig cdu_valve_pid_config() {
  PidConfig p;
  p.kp = 0.12;   // per K of secondary supply error
  p.ki = 0.006;  // per K per second
  p.out_min = 0.05;
  p.out_max = 1.0;
  p.reverse_acting = true;  // too warm -> open the primary valve
  return p;
}

PidConfig loop_dp_pid_config(double setpoint_pa, double min_speed) {
  PidConfig p;
  p.kp = 0.12 / setpoint_pa;
  p.ki = 0.015 / setpoint_pa;
  p.out_min = min_speed;
  p.out_max = 1.0;
  return p;
}

/// A bank of `units` running units of `pump`, before any leg is added.
SeriesParallelLoop bare_bank(const PumpModel& pump, int units) {
  return SeriesParallelLoop(pump.shutoff_head_pa(), pump.curve_coeff(), units);
}

/// EHX hot-side bank resistance with `staged` exchangers in parallel: 25 %
/// of the HTWP design head at design flow with all of them staged.
double ehx_hot_leg_k(const CoolingConfig& cool, int staged) {
  const double n_design = static_cast<double>(cool.primary.ehx_count);
  const double k_each = 0.25 * cool.primary.pump.design_head_pa * n_design * n_design /
                        (cool.primary.design_flow_m3s * cool.primary.design_flow_m3s);
  const double n = static_cast<double>(staged);
  return k_each / (n * n);
}

/// EHX cold-side bank resistance with `staged` exchangers in parallel: 35 %
/// of the CTWP design head at design flow with all of them staged.
double ehx_cold_leg_k(const CoolingConfig& cool, int staged) {
  const double n_design = static_cast<double>(cool.primary.ehx_count);
  const double k_each = 0.35 * cool.ct.pump.design_head_pa * n_design * n_design /
                        (cool.ct.design_flow_m3s * cool.ct.design_flow_m3s);
  const double n = static_cast<double>(staged);
  return k_each / (n * n);
}

/// Tower-cell bank resistance with `staged` of `total_cells` cells in
/// parallel: 65 % of the CTWP design head at design flow with every cell
/// staged.
double tower_cell_leg_k(const CoolingConfig& cool, int total_cells, int staged) {
  const double k_cell = 0.65 * cool.ct.pump.design_head_pa * total_cells * total_cells /
                        (cool.ct.design_flow_m3s * cool.ct.design_flow_m3s);
  const double n = static_cast<double>(staged);
  return k_cell / (n * n);
}

PidConfig fan_pid_config() {
  PidConfig p;
  p.kp = 0.20;   // per K of basin temperature error
  p.ki = 0.004;  // per K per second
  p.out_min = 0.0;
  p.out_max = 1.0;
  p.reverse_acting = true;  // warm basin -> more fan
  return p;
}

}  // namespace

double PlantOutputs::aux_power_w() const {
  double cdu_pumps = 0.0;
  for (const auto& c : cdus) cdu_pumps += c.pump_power_w;
  return cdu_pumps + htwp_power_w + ctwp_power_w + fan_power_w;
}

double PlantOutputs::total_hex_duty_w() const {
  double q = 0.0;
  for (const auto& c : cdus) q += c.hex_duty_w;
  return q;
}

CoolingPlantModel::CoolingPlantModel(const SystemConfig& config)
    : config_(config),
      cdu_pump_model_(config.cooling.cdu.pump),
      htwp_model_(config.cooling.primary.pump),
      ctwp_model_(config.cooling.ct.pump),
      tower_bank_(config.cooling.ct.tower,
                  config.cooling.ct.design_flow_m3s /
                      (config.cooling.ct.tower.tower_count *
                       config.cooling.ct.tower.cells_per_tower)),
      pri_net_(bare_bank(htwp_model_, 2)),
      htwp_pid_(loop_dp_pid_config(config.cooling.primary.dp_setpoint_pa,
                                   config.cooling.primary.pump.min_speed)),
      htwp_staging_({/*min_units=*/1, config.cooling.primary.pump_count,
                     config.cooling.primary.stage_up_speed,
                     config.cooling.primary.stage_down_speed,
                     config.cooling.primary.stage_min_interval_s},
                    /*initial_units=*/2),
      ct_net_(bare_bank(ctwp_model_, 2)),
      ctwp_pid_(loop_dp_pid_config(config.cooling.ct.header_pressure_setpoint_pa,
                                   config.cooling.ct.pump.min_speed)),
      fan_pid_(fan_pid_config()),
      ctwp_staging_({/*min_units=*/1, config.cooling.ct.pump_count,
                     config.cooling.ct.stage_up_speed, config.cooling.ct.stage_down_speed,
                     config.cooling.ct.stage_min_interval_s},
                    /*initial_units=*/2),
      ct_cell_staging_(
          {/*min_units=*/2,
           config.cooling.ct.tower.tower_count * config.cooling.ct.tower.cells_per_tower,
           config.cooling.ct.ct_stage_temp_band_k, config.cooling.ct.ct_stage_min_interval_s,
           /*use_gradient=*/true},
          /*initial_units=*/8),
      ehx_stage_lag_(config.cooling.staging_delay_s, 2.0) {
  config_.validate();
  reset();
}

void CoolingPlantModel::build_loops() {
  const CoolingConfig& cool = config_.cooling;
  cdu_loops_.clear();
  pri_net_ = bare_bank(htwp_model_, 2);
  ct_net_ = bare_bank(ctwp_model_, 2);

  // ---- 25 CDU secondary loops ----------------------------------------
  const double q_sec = cool.cdu.secondary_design_flow_m3s;
  const double h_sec = cool.cdu.pump.design_head_pa;
  const double k_rack = k_from_design(cool.cdu.rack_branch_dp_pa, q_sec / 3.0);
  const double k_hex_leg = k_from_design(h_sec - cool.cdu.rack_branch_dp_pa, q_sec);
  for (int i = 0; i < config_.cdu_count; ++i) {
    SeriesParallelLoop net = bare_bank(cdu_pump_model_, 1);
    // Rack branches close to their blockage factor (set_rack_blockage),
    // never below 0.01.
    for (int r = 0; r < config_.racks_for_cdu(i); ++r) net.add_parallel(k_rack, 0.01);
    const BranchId hex_leg = net.add_series(k_hex_leg);
    cdu_loops_.emplace_back(std::move(net), cdu_pump_pid_config(cool.cdu, cool.cdu.pump),
                            cdu_valve_pid_config());
    cdu_loops_.back().hex_leg = hex_leg;
  }

  // ---- Primary HTW loop ------------------------------------------------
  const double q_pri = cool.primary.design_flow_m3s;
  const double h_pri = cool.primary.pump.design_head_pa;
  pri_ehx_leg_ = pri_net_.add_series(ehx_hot_leg_k(cool, cool.primary.ehx_count));
  // CDU HEX branches: 75 % of design head at valve position 0.7.
  const double q_branch = q_pri / static_cast<double>(config_.cdu_count);
  const double k_open = 0.7 * 0.7 * 0.75 * h_pri / (q_branch * q_branch);
  for (int i = 0; i < config_.cdu_count; ++i) pri_net_.add_parallel(k_open);

  // ---- Cooling-tower loop ----------------------------------------------
  ct_ehx_leg_ = ct_net_.add_series(ehx_cold_leg_k(cool, cool.primary.ehx_count));
  const int cells = tower_bank_.total_cells();
  ct_cell_leg_ = ct_net_.add_series(tower_cell_leg_k(cool, cells, cells));
}

void CoolingPlantModel::reset(double ambient_c) {
  // Rebuilt loops and the default basin setpoint undo whatever the
  // controls and callers have set (speeds, staged units, resistances,
  // valve positions, blockages, forced pump speeds), so a reset plant
  // equals a fresh one.
  build_loops();
  ct_supply_setpoint_c_ = config_.cooling.primary.htws_setpoint_c - 4.0;
  const double start = ambient_c + 5.0;
  cdu_ = CduColumns(cdu_loops_.size());
  std::fill(cdu_.t_supply_c.begin(), cdu_.t_supply_c.end(), start);
  std::fill(cdu_.t_return_c.begin(), cdu_.t_return_c.end(), start + 4.0);
  for (auto& loop : cdu_loops_) {
    loop.pump_speed = 0.8;
    loop.valve_position = 0.7;
    loop.pump_pid.reset(loop.pump_speed);
    loop.valve_pid.reset(loop.valve_position);
  }
  hydraulics_stats_ = HydraulicsStats{};
  thermal_stats_ = ThermalStats{};
  step_count_ = 0;
  t_pri_supply_c_ = start;
  t_pri_return_c_ = start + 3.0;
  t_ct_supply_c_ = ambient_c + 2.0;
  t_ct_return_c_ = ambient_c + 5.0;
  htwp_pid_.reset(0.8);
  ctwp_pid_.reset(0.8);
  fan_pid_.reset(0.5);
  htwp_staging_.reset(2);
  ctwp_staging_.reset(2);
  ct_cell_staging_.reset(8);
  ehx_stage_lag_.reset(2.0);
  outputs_ = PlantOutputs{};
  outputs_.cdus.assign(static_cast<std::size_t>(config_.cdu_count), CduOutputs{});
  time_s_ = 0.0;
  solve_hydraulics();
  collect_outputs(CoolingInputs{std::vector<double>(config_.cdu_count, 0.0), ambient_c, 0.0});
}

void CoolingPlantModel::set_rack_blockage(int cdu, int rack_slot, double factor) {
  require(cdu >= 0 && cdu < static_cast<int>(cdu_loops_.size()), "cdu index out of range");
  auto& loop = cdu_loops_[static_cast<std::size_t>(cdu)];
  require(rack_slot >= 0 && rack_slot < static_cast<int>(loop.net.parallel_count()),
          "rack slot out of range");
  require(factor > 0.0 && factor <= 1.0, "blockage factor must be in (0,1]");
  // A blockage that scales achievable flow by `factor` raises the branch
  // resistance by 1/factor^2: the branch closes down to `factor`.
  loop.net.set_position(static_cast<BranchId>(rack_slot), factor);
}

void CoolingPlantModel::force_cdu_pump_speed(int cdu, double speed) {
  require(cdu >= 0 && cdu < static_cast<int>(cdu_loops_.size()), "cdu index out of range");
  cdu_loops_[static_cast<std::size_t>(cdu)].forced_speed = speed;
}

void CoolingPlantModel::set_basin_setpoint_offset(double offset_k) {
  require(offset_k < 0.0 && offset_k > -15.0,
          "basin setpoint offset must lie in (-15, 0) K below the HTWS setpoint");
  ct_supply_setpoint_c_ = config_.cooling.primary.htws_setpoint_c + offset_k;
}

void CoolingPlantModel::update_controls(const CoolingInputs& inputs, double dt) {
  (void)inputs;
  const CoolingConfig& cool = config_.cooling;

  for (std::size_t i = 0; i < cdu_loops_.size(); ++i) {
    auto& loop = cdu_loops_[i];
    const double dp = loop.net.pump_rise_pa();
    if (loop.forced_speed >= 0.0) {
      loop.pump_speed = std::clamp(loop.forced_speed, 0.0, 1.0);
    } else {
      loop.pump_speed = loop.pump_pid.update(cool.cdu.loop_dp_setpoint_pa, dp, dt);
    }
    loop.valve_position =
        loop.valve_pid.update(cool.cdu.supply_setpoint_c, cdu_.t_supply_c[i], dt);
  }

  // HTWPs: speed regulates loop differential pressure; staging follows the
  // relative speed of the running pumps.
  const double pri_dp = outputs_.pri_dp_pa > 0.0 ? outputs_.pri_dp_pa
                                                 : cool.primary.dp_setpoint_pa;
  const double htwp_speed = htwp_pid_.update(cool.primary.dp_setpoint_pa, pri_dp, dt);
  const int htwp_staged = htwp_staging_.update(htwp_speed, dt);

  // Cooling-tower cells: staged on the HTW supply temperature and its
  // gradient; EHX staging follows the (delayed) number of towers running.
  const int cells = ct_cell_staging_.update(t_pri_supply_c_,
                                            cool.primary.htws_setpoint_c, dt);
  const double towers_running = static_cast<double>(cells) /
                                static_cast<double>(cool.ct.tower.cells_per_tower);
  const double lagged = ehx_stage_lag_.update(towers_running, dt);
  const int ehx_staged =
      std::clamp(static_cast<int>(std::lround(lagged)), 1, cool.primary.ehx_count);

  // CTWPs: speed regulates the tower supply header pressure.
  const double header = last_ct_header_pa_ > 0.0 ? last_ct_header_pa_
                                                 : cool.ct.header_pressure_setpoint_pa;
  const double ctwp_speed = ctwp_pid_.update(cool.ct.header_pressure_setpoint_pa, header, dt);
  const int ctwp_staged = ctwp_staging_.update(ctwp_speed, dt);

  // Fans: hold the basin (cold water supply) temperature at its setpoint.
  const double fan_speed = fan_pid_.update(ct_supply_setpoint_c_, t_ct_supply_c_, dt);

  // Apply to the loops.
  for (auto& loop : cdu_loops_) {
    loop.net.set_speed(loop.pump_speed);
  }
  pri_net_.set_speed(htwp_speed);
  pri_net_.set_units(htwp_staged);
  pri_net_.set_k(pri_ehx_leg_, ehx_hot_leg_k(cool, ehx_staged));
  for (std::size_t i = 0; i < cdu_loops_.size(); ++i) {
    pri_net_.set_position(i, cdu_loops_[i].valve_position);
  }
  ct_net_.set_speed(ctwp_speed);
  ct_net_.set_units(ctwp_staged);
  ct_net_.set_k(ct_ehx_leg_, ehx_cold_leg_k(cool, ehx_staged));
  ct_net_.set_k(ct_cell_leg_, tower_cell_leg_k(cool, tower_bank_.total_cells(), cells));

  outputs_.htwp_speed = htwp_speed;
  outputs_.htwp_staged = htwp_staged;
  outputs_.ehx_staged = ehx_staged;
  outputs_.ct_cells_staged = cells;
  outputs_.ctwp_speed = ctwp_speed;
  outputs_.ctwp_staged = ctwp_staged;
  outputs_.fan_speed = fan_speed;
}

int CoolingPlantModel::thermal_substeps(double dt) const {
  const CoolingConfig& cool = config_.cooling;
  double q_cdu = 0.0;
  for (const auto& loop : cdu_loops_) {
    if (!(loop.net.flow_m3s() <= q_cdu)) q_cdu = loop.net.flow_m3s();
  }
  struct Volume {
    const char* key;
    double volume_m3;
    double flow_m3s;
  };
  const Volume volumes[] = {
      {"cooling.cdu.secondary_volume_m3", cool.cdu.secondary_volume_m3, q_cdu},
      {"cooling.primary.volume_m3", cool.primary.volume_m3, pri_net_.flow_m3s()},
      {"cooling.ct.volume_m3", cool.ct.volume_m3, ct_net_.flow_m3s()},
  };
  // The fastest volume (largest q / V_half) sets the stability bound. A NaN
  // flow or rate wins each comparison, so it ends in the error below.
  const Volume* fastest = &volumes[0];
  double rate = 0.0;
  for (const Volume& v : volumes) {
    const double r = v.flow_m3s / (0.5 * v.volume_m3);
    if (!(r <= rate)) {
      rate = r;
      fastest = &v;
    }
  }
  // Counted in double, so a huge or NaN count throws instead of wrapping.
  const double requested = std::round(dt / cool.thermal_substep_s);
  const double stable = std::floor(dt * rate) + 1.0;
  const double substeps = stable < requested ? requested : stable;
  if (!(substeps <= kMaxThermalSubsteps)) {
    const std::string what = "a " + format_double(dt) + " s plant step needs " +
                             format_double(substeps) + " thermal substeps, more than " +
                             std::to_string(kMaxThermalSubsteps) + ": ";
    if (stable < requested) {
      throw ConfigError(what + "cooling.thermal_substep_s is " +
                        format_double(cool.thermal_substep_s) + " s");
    }
    throw ConfigError(what + fastest->key + " is " + format_double(fastest->volume_m3) +
                      " m3 at a flow of " + format_double(fastest->flow_m3s) + " m3/s");
  }
  return static_cast<int>(substeps);
}

// exadigit-hot-begin(plant-hydraulics-thermal)
void CoolingPlantModel::solve_hydraulics() {
  double residual = hydraulics_stats_.max_mass_residual_rel;
  for (auto& loop : cdu_loops_) {
    loop.net.evaluate();
    residual = std::max(residual, loop.net.mass_residual_rel());
  }
  pri_net_.evaluate();
  ct_net_.evaluate();
  residual = std::max({residual, pri_net_.mass_residual_rel(), ct_net_.mass_residual_rel()});
  hydraulics_stats_.max_mass_residual_rel = residual;
  hydraulics_stats_.solves_performed += static_cast<long long>(cdu_loops_.size()) + 2;
  last_ct_header_pa_ = ct_net_.inlet_pressure_pa(ct_cell_leg_);
}

void CoolingPlantModel::integrate_thermal(const CoolingInputs& inputs, double dt) {
  const CoolingConfig& cool = config_.cooling;
  // One count for both thermal paths, so they stay bit-identical.
  const int substeps = thermal_substeps(dt);
  const double h = dt / static_cast<double>(substeps);

  const double q_pri_total = pri_net_.flow_m3s();
  const double q_ct = ct_net_.flow_m3s();
  const std::size_t n = cdu_loops_.size();
  const bool batched = thermal_eval_ == ThermalEval::kBatched;
  const double half_vol = 0.5 * cool.cdu.secondary_volume_m3;
  // Staging, fan speed and tower flow hold for the step, and so do the
  // tower's effectiveness and fan power; substeps take only the approach.
  const TowerOperatingPoint tower =
      tower_bank_.operating_point(outputs_.ct_cells_staged, outputs_.fan_speed, q_ct);
  outputs_.fan_power_w = tower.fan_power_w;

  // The flows hold for the step and the heats come from `inputs`, so the
  // columns take them once; the branch flows' ascending sum is the same
  // mix_flow that the scalar path adds up in every substep.
  double step_mix_flow = 0.0;
  if (batched) {
    for (std::size_t i = 0; i < n; ++i) {
      const double q_sec = cdu_loops_[i].net.flow_m3s();
      const double q_branch = pri_net_.branch_flow_m3s(i);
      cdu_.q_sec_m3s[i] = q_sec;
      cdu_.q_branch_m3s[i] = q_branch;
      cdu_.heat_w[i] = inputs.cdu_heat_w[i];
      cdu_.sec_rate[i] = q_sec / half_vol;
      step_mix_flow += q_branch;
    }
  }

  for (int s = 0; s < substeps; ++s) {
    // --- CDU loops + primary branch mixing --------------------------------
    double mix_accum = 0.0;
    double mix_flow = 0.0;
    if (batched) {
      mix_accum = cdu_.substep(cool.cdu.hex.ua_w_per_k, half_vol, t_pri_supply_c_, h);
      mix_flow = step_mix_flow;
      thermal_stats_.hx_evaluated += static_cast<long long>(n);
    } else {
      // Scalar reference path, CDU by CDU. The primary supply's property
      // evaluation is hoisted; capacity_rate(t, q) is exactly
      // coolant_rho_cp(t) * q, so the hoist keeps the bits.
      const double rho_cp_pri_supply = coolant_rho_cp(Coolant::kWater, t_pri_supply_c_);
      for (std::size_t i = 0; i < n; ++i) {
        double& t_supply = cdu_.t_supply_c[i];
        double& t_return = cdu_.t_return_c[i];
        const double q_sec = cdu_loops_[i].net.flow_m3s();
        const double q_branch = pri_net_.branch_flow_m3s(i);
        const double rho_cp = coolant_rho_cp(Coolant::kWater, t_return);
        const double c_sec = rho_cp * q_sec;
        const double c_pri = rho_cp_pri_supply * q_branch;
        const HxResult hx = evaluate_counterflow_hx(cool.cdu.hex.ua_w_per_k, t_return, c_sec,
                                                    t_pri_supply_c_, c_pri);
        const double heat = inputs.cdu_heat_w.at(i);
        // Supply volume: fed by the HEX hot-side outlet.
        const double d_supply = q_sec / half_vol * (hx.hot_out_c - t_supply);
        // Return volume: fed by the supply volume plus the rack heat load.
        const double d_return =
            q_sec / half_vol * (t_supply - t_return) + heat / (rho_cp * half_vol);
        t_supply += h * d_supply;
        t_return += h * d_return;
        mix_accum += q_branch * hx.cold_out_c;
        mix_flow += q_branch;
        if (s == substeps - 1) {
          auto& out = outputs_.cdus[i];
          out.hex_duty_w = hx.duty_w;
          out.pri_return_t_c = hx.cold_out_c;
        }
      }
    }
    const double t_mix = mix_flow > 1e-9 ? mix_accum / mix_flow : t_pri_return_c_;

    // --- Primary loop volumes ---------------------------------------------
    const double pri_half_vol = 0.5 * cool.primary.volume_m3;
    const double c_pri_total = capacity_rate(Coolant::kWater, t_pri_return_c_, q_pri_total);
    const double c_ct = capacity_rate(Coolant::kWater, t_ct_supply_c_, q_ct);
    const double ua_ehx = cool.primary.ehx.ua_w_per_k * outputs_.ehx_staged;
    const HxResult ehx = evaluate_counterflow_hx(ua_ehx, t_pri_return_c_, c_pri_total,
                                                 t_ct_supply_c_, c_ct);
    const double d_pret = q_pri_total / pri_half_vol * (t_mix - t_pri_return_c_);
    const double d_psup = q_pri_total / pri_half_vol * (ehx.hot_out_c - t_pri_supply_c_);
    t_pri_return_c_ += h * d_pret;
    t_pri_supply_c_ += h * d_psup;

    // --- Cooling-tower loop -------------------------------------------------
    const double ct_half_vol = 0.5 * cool.ct.volume_m3;
    const double basin_c = tower.water_out_c(t_ct_return_c_, inputs.wetbulb_c);
    const double d_cret = q_ct / ct_half_vol * (ehx.cold_out_c - t_ct_return_c_);
    const double d_csup = q_ct / ct_half_vol * (basin_c - t_ct_supply_c_);
    t_ct_return_c_ += h * d_cret;
    t_ct_supply_c_ += h * d_csup;
  }

  if (batched) {
    // The columns hold the last substep's HEX, as the scalar path records it.
    for (std::size_t i = 0; i < n; ++i) {
      outputs_.cdus[i].hex_duty_w = cdu_.duty_w[i];
      outputs_.cdus[i].pri_return_t_c = cdu_.pri_return_c[i];
    }
  }
}
// exadigit-hot-end

void CoolingPlantModel::collect_outputs(const CoolingInputs& inputs) {
  const double q_pri_total = pri_net_.flow_m3s();
  const double q_ct = ct_net_.flow_m3s();

  for (std::size_t i = 0; i < cdu_loops_.size(); ++i) {
    auto& loop = cdu_loops_[i];
    auto& out = outputs_.cdus[i];
    const double q_sec = loop.net.flow_m3s();
    const double rise = loop.net.pump_rise_pa();
    out.pump_power_w = cdu_pump_model_.electric_power_w(q_sec, rise);
    out.pump_speed = loop.pump_speed;
    out.sec_flow_m3s = q_sec;
    out.pri_flow_m3s = pri_net_.branch_flow_m3s(i);
    out.sec_supply_t_c = cdu_.t_supply_c[i];
    out.sec_return_t_c = cdu_.t_return_c[i];
    out.sec_supply_p_pa = loop.net.pump_rise_pa();
    out.sec_return_p_pa = loop.net.inlet_pressure_pa(loop.hex_leg);
    out.valve_position = loop.valve_position;
    out.loop_dp_pa = rise;
  }

  outputs_.pri_supply_t_c = t_pri_supply_c_;
  outputs_.pri_return_t_c = t_pri_return_c_;
  outputs_.pri_flow_m3s = q_pri_total;
  outputs_.pri_dp_pa = pri_net_.pump_rise_pa();
  {
    const int n = std::max(1, outputs_.htwp_staged);
    const double per_unit = q_pri_total / n;
    outputs_.htwp_power_w =
        n * htwp_model_.electric_power_w(per_unit, outputs_.pri_dp_pa);
  }
  {
    const int n = std::max(1, outputs_.ctwp_staged);
    const double per_unit = q_ct / n;
    const double rise = ct_net_.pump_rise_pa();
    outputs_.ctwp_power_w = n * ctwp_model_.electric_power_w(per_unit, rise);
  }
  outputs_.ct_supply_t_c = t_ct_supply_c_;
  outputs_.ct_return_t_c = t_ct_return_c_;

  // PUE (paper Section III-C4): total facility power over P_system. The
  // CDU pumps are already part of P_system (Table I), so the facility adds
  // the CEP auxiliaries: HTWPs, CTWPs, and tower fans.
  if (inputs.system_power_w > 0.0) {
    const double facility = inputs.system_power_w + outputs_.htwp_power_w +
                            outputs_.ctwp_power_w + outputs_.fan_power_w;
    outputs_.pue = facility / inputs.system_power_w;
  } else {
    outputs_.pue = 0.0;
  }
}

const PlantOutputs& CoolingPlantModel::step(const CoolingInputs& inputs, double dt) {
  require(dt > 0.0, "plant step requires dt > 0");
  require(inputs.cdu_heat_w.size() == static_cast<std::size_t>(config_.cdu_count),
          "cdu_heat_w size must equal cdu_count");
  // Boundary conditions are checked here, once for every caller: a NaN or
  // negative heat would otherwise surface deep in the HX kernel, or run on
  // to unphysical temperatures.
  for (std::size_t i = 0; i < inputs.cdu_heat_w.size(); ++i) {
    const double heat = inputs.cdu_heat_w[i];
    if (!(std::isfinite(heat) && heat >= 0.0)) {
      throw ConfigError("cdu_heat_w of CDU " + std::to_string(i) +
                        " must be finite and non-negative");
    }
  }
  require(std::isfinite(inputs.wetbulb_c), "wetbulb_c must be finite");
  require(std::isfinite(inputs.system_power_w) && inputs.system_power_w >= 0.0,
          "system_power_w must be finite and non-negative");
  update_controls(inputs, dt);
  solve_hydraulics();
  integrate_thermal(inputs, dt);
  collect_outputs(inputs);
  time_s_ += dt;
  ++step_count_;
  return outputs_;
}

}  // namespace exadigit
