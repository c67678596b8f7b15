#include "cooling/plant.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
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
      htwp_pid_(loop_dp_pid_config(config.cooling.primary.dp_setpoint_pa,
                                   config.cooling.primary.pump.min_speed)),
      htwp_staging_({/*min_units=*/1, config.cooling.primary.pump_count,
                     config.cooling.primary.stage_up_speed,
                     config.cooling.primary.stage_down_speed,
                     config.cooling.primary.stage_min_interval_s},
                    /*initial_units=*/2),
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
  ct_supply_setpoint_c_ = config_.cooling.primary.htws_setpoint_c - 4.0;
  build_networks();
  reset();
}

void CoolingPlantModel::build_networks() {
  const CoolingConfig& cool = config_.cooling;

  // ---- 25 CDU secondary loops ----------------------------------------
  const double q_sec = cool.cdu.secondary_design_flow_m3s;
  const double h_sec = cool.cdu.pump.design_head_pa;
  const double k_rack = k_from_design(cool.cdu.rack_branch_dp_pa, q_sec / 3.0);
  const double k_hex_leg = k_from_design(h_sec - cool.cdu.rack_branch_dp_pa, q_sec);
  for (int i = 0; i < config_.cdu_count; ++i) {
    FlowNetwork net;
    net.set_label("cdu_" + std::to_string(i));
    const NodeId suction = net.add_node("suction");
    const NodeId supply = net.add_node("supply_header");
    const NodeId ret = net.add_node("return_header");
    CduLoopState loop(std::move(net), cdu_pump_pid_config(cool.cdu, cool.cdu.pump),
                      cdu_valve_pid_config());
    loop.supply_node = supply;
    loop.return_node = ret;
    loop.pump = loop.net.add_pump(suction, supply, cool.cdu.pump.shutoff_head_pa,
                                  cdu_pump_model_.curve_coeff(), 1, "cdu_pump");
    const int racks = config_.racks_for_cdu(i);
    for (int r = 0; r < racks; ++r) {
      loop.rack_branches.push_back(
          loop.net.add_resistance(supply, ret, k_rack, "rack_" + std::to_string(r)));
    }
    loop.hex_leg = loop.net.add_resistance(ret, suction, k_hex_leg, "hex_leg");
    cdu_loops_.push_back(std::move(loop));
  }

  // ---- Primary HTW loop ------------------------------------------------
  const double q_pri = cool.primary.design_flow_m3s;
  const double h_pri = cool.primary.pump.design_head_pa;
  pri_net_.set_label("primary");
  const NodeId p_ret = pri_net_.add_node("return_header");
  const NodeId p_sup = pri_net_.add_node("supply_header");
  const NodeId p_disc = pri_net_.add_node("pump_discharge");
  pri_pump_branch_ = pri_net_.add_pump(p_ret, p_disc, cool.primary.pump.shutoff_head_pa,
                                       htwp_model_.curve_coeff(), 2, "htwp_bank");
  // EHX hot-side bank: 25 % of design head at 5 staged units.
  const double n_ehx = static_cast<double>(cool.primary.ehx_count);
  const double k_ehx_each = 0.25 * h_pri * n_ehx * n_ehx / (q_pri * q_pri);
  pri_ehx_branch_ = pri_net_.add_resistance(p_disc, p_sup, k_ehx_each / (n_ehx * n_ehx),
                                            "ehx_hot_bank");
  // CDU HEX branches: 75 % of design head at valve position 0.7.
  const double q_branch = q_pri / static_cast<double>(config_.cdu_count);
  const double k_open = 0.7 * 0.7 * 0.75 * h_pri / (q_branch * q_branch);
  for (int i = 0; i < config_.cdu_count; ++i) {
    pri_cdu_branches_.push_back(
        pri_net_.add_valve(p_sup, p_ret, k_open, "cdu_hex_" + std::to_string(i)));
  }

  // ---- Cooling-tower loop ----------------------------------------------
  const double q_ct = cool.ct.design_flow_m3s;
  const double h_ct = cool.ct.pump.design_head_pa;
  ct_net_.set_label("cooling_tower");
  const NodeId c_basin = ct_net_.add_node("basin");
  const NodeId c_head = ct_net_.add_node("tower_header");
  const NodeId c_disc = ct_net_.add_node("pump_discharge");
  ct_header_node_ = c_head;
  ct_pump_branch_ = ct_net_.add_pump(c_basin, c_disc, cool.ct.pump.shutoff_head_pa,
                                     ctwp_model_.curve_coeff(), 2, "ctwp_bank");
  const double k_ehx_cold_each = 0.35 * h_ct * n_ehx * n_ehx / (q_ct * q_ct);
  ct_ehx_branch_ = ct_net_.add_resistance(c_disc, c_head, k_ehx_cold_each / (n_ehx * n_ehx),
                                          "ehx_cold_bank");
  const int cells = tower_bank_.total_cells();
  const double k_cell =
      0.65 * h_ct * static_cast<double>(cells) * static_cast<double>(cells) / (q_ct * q_ct);
  ct_cell_branch_ = ct_net_.add_resistance(c_head, c_basin, k_cell / (cells * cells),
                                           "tower_cells");
}

void CoolingPlantModel::reset(double ambient_c) {
  const double start = ambient_c + 5.0;
  for (auto& loop : cdu_loops_) {
    loop.t_supply_c = start;
    loop.t_return_c = start + 4.0;
    loop.pump_speed = 0.8;
    loop.valve_position = 0.7;
    loop.pump_pid.reset(loop.pump_speed);
    loop.valve_pid.reset(loop.valve_position);
    loop.last_solution = NetworkSolution{};
    loop.has_solution = false;
    for (BranchId b : loop.rack_branches) loop.net.set_position(b, 1.0);
  }
  pri_has_solution_ = false;
  ct_has_solution_ = false;
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
  require(rack_slot >= 0 && rack_slot < static_cast<int>(loop.rack_branches.size()),
          "rack slot out of range");
  require(factor > 0.0 && factor <= 1.0, "blockage factor must be in (0,1]");
  // A blockage that scales achievable flow by `factor` raises the branch
  // resistance by 1/factor^2. Reuse the valve-position mechanism.
  loop.net.convert_to_valve(loop.rack_branches[static_cast<std::size_t>(rack_slot)], factor,
                            0.01);
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

  for (auto& loop : cdu_loops_) {
    // Guard on the field pressure_rise actually reads (the old guard
    // checked branch_flow_m3s and then read node pressures).
    const double dp = loop.last_solution.node_pressure_pa.empty()
                          ? cool.cdu.loop_dp_setpoint_pa
                          : loop.net.pressure_rise(loop.last_solution, loop.pump);
    if (loop.forced_speed >= 0.0) {
      loop.pump_speed = std::clamp(loop.forced_speed, 0.0, 1.0);
    } else {
      loop.pump_speed = loop.pump_pid.update(cool.cdu.loop_dp_setpoint_pa, dp, dt);
    }
    loop.valve_position =
        loop.valve_pid.update(cool.cdu.supply_setpoint_c, loop.t_supply_c, dt);
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

  // Apply to the networks.
  for (auto& loop : cdu_loops_) {
    loop.net.set_speed(loop.pump, loop.pump_speed);
  }
  {
    pri_net_.set_speed(pri_pump_branch_, htwp_speed);
    pri_net_.set_parallel_units(pri_pump_branch_, htwp_staged);
    const double n = static_cast<double>(ehx_staged);
    const double n_design = static_cast<double>(cool.primary.ehx_count);
    const double k_each = 0.25 * cool.primary.pump.design_head_pa * n_design * n_design /
                          (cool.primary.design_flow_m3s * cool.primary.design_flow_m3s);
    pri_net_.set_k(pri_ehx_branch_, k_each / (n * n));
    for (int i = 0; i < config_.cdu_count; ++i) {
      pri_net_.set_position(pri_cdu_branches_[static_cast<std::size_t>(i)],
                            cdu_loops_[static_cast<std::size_t>(i)].valve_position);
    }
  }
  {
    ct_net_.set_speed(ct_pump_branch_, ctwp_speed);
    ct_net_.set_parallel_units(ct_pump_branch_, ctwp_staged);
    const double n_ehx = static_cast<double>(ehx_staged);
    const double n_design = static_cast<double>(cool.primary.ehx_count);
    const double k_cold_each = 0.35 * cool.ct.pump.design_head_pa * n_design * n_design /
                               (cool.ct.design_flow_m3s * cool.ct.design_flow_m3s);
    ct_net_.set_k(ct_ehx_branch_, k_cold_each / (n_ehx * n_ehx));
    const int total_cells = tower_bank_.total_cells();
    const double k_cell = 0.65 * cool.ct.pump.design_head_pa * total_cells * total_cells /
                          (cool.ct.design_flow_m3s * cool.ct.design_flow_m3s);
    const double n_cells = static_cast<double>(cells);
    ct_net_.set_k(ct_cell_branch_, k_cell / (n_cells * n_cells));
  }

  outputs_.htwp_speed = htwp_speed;
  outputs_.htwp_staged = htwp_staged;
  outputs_.ehx_staged = ehx_staged;
  outputs_.ct_cells_staged = cells;
  outputs_.ctwp_speed = ctwp_speed;
  outputs_.ctwp_staged = ctwp_staged;
  outputs_.fan_speed = fan_speed;
}

// exadigit-hot-begin(plant-hydraulics-thermal)
void CoolingPlantModel::solve_hydraulics() {
  const bool dedup = hydraulics_eval_ == HydraulicsEval::kDedup;
  const double sec_scale = config_.cooling.cdu.secondary_design_flow_m3s;
  const std::size_t n = cdu_loops_.size();

  // Classify every loop before solving any. Copying loop j's result to
  // loop i is only exact when both would have started Newton from the same
  // point — and because no solve of this step has run yet, every network
  // still holds its pre-step warm state, so the donor scan can compare
  // live warm vectors directly (no snapshot copies needed).
  solve_actions_.assign(n, SolveAction::kSolve);
  solve_donor_.assign(n, 0);
  for (std::size_t i = 0; dedup && i < n; ++i) {
    const FlowNetwork& net = cdu_loops_[i].net;
    if (cdu_loops_[i].has_solution && !net.parameters_changed()) {
      // Unchanged operating point: a re-solve would warm-start at the
      // converged pressures and exit after zero iterations with exactly
      // the stored state, so skip it outright.
      solve_actions_[i] = SolveAction::kSkipUnchanged;
      continue;
    }
    // A loop ahead of this one at the same exact operating point (branch
    // parameters and pre-step warm start) converges to the bit-identical
    // solution: Newton here is a deterministic function of both. Every
    // loop ends the step holding a solution, so any j < i is an eligible
    // donor.
    for (std::size_t j = 0; j < i; ++j) {
      if (cdu_loops_[j].net.same_operating_point(net)) {
        solve_actions_[i] = SolveAction::kCopyDonor;
        solve_donor_[i] = j;
        break;
      }
    }
  }

  // Apply in ascending loop order: a donor j < i has its solution by the
  // time loop i copies it.
  for (std::size_t i = 0; i < n; ++i) {
    auto& loop = cdu_loops_[i];
    switch (solve_actions_[i]) {
      case SolveAction::kSkipUnchanged:
        ++hydraulics_stats_.reused_unchanged;
        break;
      case SolveAction::kCopyDonor:
        loop.last_solution = cdu_loops_[solve_donor_[i]].last_solution;
        loop.net.adopt_solution(loop.last_solution);
        ++hydraulics_stats_.reused_shared;
        loop.has_solution = true;
        break;
      case SolveAction::kSolve:
        loop.net.solve_into(loop.last_solution, sec_scale);
        ++hydraulics_stats_.solves_performed;
        loop.has_solution = true;
        break;
    }
  }

  // Primary and CT loops have unique topologies, so only the unchanged
  // skip applies to them.
  if (dedup && pri_has_solution_ && !pri_net_.parameters_changed()) {
    ++hydraulics_stats_.reused_unchanged;
  } else {
    pri_net_.solve_into(pri_solution_, config_.cooling.primary.design_flow_m3s);
    ++hydraulics_stats_.solves_performed;
    pri_has_solution_ = true;
  }

  if (dedup && ct_has_solution_ && !ct_net_.parameters_changed()) {
    ++hydraulics_stats_.reused_unchanged;
  } else {
    ct_net_.solve_into(ct_solution_, config_.cooling.ct.design_flow_m3s);
    ++hydraulics_stats_.solves_performed;
    ct_has_solution_ = true;
  }
  last_ct_header_pa_ = ct_solution_.node_pressure_pa.at(ct_header_node_);
}

void CoolingPlantModel::integrate_thermal(const CoolingInputs& inputs, double dt) {
  const CoolingConfig& cool = config_.cooling;
  const double sub = cool.thermal_substep_s;
  const int substeps = std::max(1, static_cast<int>(std::lround(dt / sub)));
  const double h = dt / static_cast<double>(substeps);

  const double q_pri_total = pri_net_.flow(pri_solution_, pri_pump_branch_);
  const double q_ct = ct_net_.flow(ct_solution_, ct_pump_branch_);
  const std::size_t n = cdu_loops_.size();
  const bool batched = thermal_eval_ == ThermalEval::kBatched;

  if (batched) {
    // Gather the substep-invariant per-CDU inputs once: the loop and
    // primary-branch flows come from this step's (fixed) hydraulic
    // solutions and the heat loads from `inputs`, none of which change
    // across substeps. The scalar reference path re-reads them per substep;
    // the values are the same doubles either way.
    th_q_sec_.resize(n);
    th_q_branch_.resize(n);
    th_heat_.resize(n);
    th_hot_in_.resize(n);
    th_rho_cp_.resize(n);
    th_c_sec_.resize(n);
    th_c_pri_.resize(n);
    th_hx_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& loop = cdu_loops_[i];
      th_q_sec_[i] = loop.net.flow(loop.last_solution, loop.pump);
      th_q_branch_[i] = pri_net_.flow(pri_solution_, pri_cdu_branches_[i]);
      th_heat_[i] = inputs.cdu_heat_w.at(i);
    }
  }

  for (int s = 0; s < substeps; ++s) {
    // --- CDU loops + primary branch mixing --------------------------------
    // The primary supply temperature is loop-invariant within a substep, so
    // its property evaluation is hoisted; capacity_rate(t, q) is exactly
    // coolant_rho_cp(t) * q, so these common-subexpression hoists leave the
    // arithmetic (and results) bit-identical.
    const double rho_cp_pri_supply = coolant_rho_cp(Coolant::kWater, t_pri_supply_c_);
    double mix_accum = 0.0;
    double mix_flow = 0.0;
    if (batched) {
      // Batched fast path: pack this substep's HX inputs, evaluate all 25
      // HX units through the contiguous-array kernel, then apply the same
      // per-loop update expressions in the same ascending order as the
      // scalar path (bit-identical; see heat_exchanger.hpp).
      for (std::size_t i = 0; i < n; ++i) {
        auto& loop = cdu_loops_[i];
        const double rho_cp = coolant_rho_cp(Coolant::kWater, loop.t_return_c);
        th_hot_in_[i] = loop.t_return_c;
        th_rho_cp_[i] = rho_cp;
        th_c_sec_[i] = rho_cp * th_q_sec_[i];
        th_c_pri_[i] = rho_cp_pri_supply * th_q_branch_[i];
      }
      thermal_stats_.hx_evaluated += static_cast<long long>(n);
      evaluate_counterflow_hx_batch(n, cool.cdu.hex.ua_w_per_k, th_hot_in_.data(),
                                    th_c_sec_.data(), t_pri_supply_c_, th_c_pri_.data(),
                                    th_hx_.data());
      for (std::size_t i = 0; i < n; ++i) {
        auto& loop = cdu_loops_[i];
        const HxResult& hx = th_hx_[i];
        const double q_sec = th_q_sec_[i];
        const double q_branch = th_q_branch_[i];
        const double half_vol = 0.5 * cool.cdu.secondary_volume_m3;
        const double d_supply = q_sec / half_vol * (hx.hot_out_c - loop.t_supply_c);
        const double d_return = q_sec / half_vol * (loop.t_supply_c - loop.t_return_c) +
                                th_heat_[i] / (th_rho_cp_[i] * half_vol);
        loop.t_supply_c += h * d_supply;
        loop.t_return_c += h * d_return;
        mix_accum += q_branch * hx.cold_out_c;
        mix_flow += q_branch;
        if (s == substeps - 1) {
          auto& out = outputs_.cdus[i];
          out.hex_duty_w = hx.duty_w;
          out.pri_return_t_c = hx.cold_out_c;
        }
      }
    } else {
      // Scalar reference path: the original PR 4 per-loop structure.
      for (std::size_t i = 0; i < n; ++i) {
        auto& loop = cdu_loops_[i];
        const double q_sec = loop.net.flow(loop.last_solution, loop.pump);
        const double q_branch = pri_net_.flow(pri_solution_, pri_cdu_branches_[i]);
        const double rho_cp = coolant_rho_cp(Coolant::kWater, loop.t_return_c);
        const double c_sec = rho_cp * q_sec;
        const double c_pri = rho_cp_pri_supply * q_branch;
        const HxResult hx = evaluate_counterflow_hx(cool.cdu.hex.ua_w_per_k, loop.t_return_c,
                                                    c_sec, t_pri_supply_c_, c_pri);
        const double heat = inputs.cdu_heat_w.at(i);
        const double half_vol = 0.5 * cool.cdu.secondary_volume_m3;
        // Supply volume: fed by the HEX hot-side outlet.
        const double d_supply = q_sec / half_vol * (hx.hot_out_c - loop.t_supply_c);
        // Return volume: fed by the supply volume plus the rack heat load.
        const double d_return = q_sec / half_vol * (loop.t_supply_c - loop.t_return_c) +
                                heat / (rho_cp * half_vol);
        loop.t_supply_c += h * d_supply;
        loop.t_return_c += h * d_return;
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
    const TowerResult tower =
        tower_bank_.evaluate(outputs_.ct_cells_staged, outputs_.fan_speed, q_ct,
                             t_ct_return_c_, inputs.wetbulb_c);
    const double d_cret = q_ct / ct_half_vol * (ehx.cold_out_c - t_ct_return_c_);
    const double d_csup = q_ct / ct_half_vol * (tower.water_out_c - t_ct_supply_c_);
    t_ct_return_c_ += h * d_cret;
    t_ct_supply_c_ += h * d_csup;

    if (s == substeps - 1) {
      outputs_.fan_power_w = tower.fan_power_w;
    }
  }
}
// exadigit-hot-end

void CoolingPlantModel::collect_outputs(const CoolingInputs& inputs) {
  const double q_pri_total = pri_net_.flow(pri_solution_, pri_pump_branch_);
  const double q_ct = ct_net_.flow(ct_solution_, ct_pump_branch_);

  for (std::size_t i = 0; i < cdu_loops_.size(); ++i) {
    auto& loop = cdu_loops_[i];
    auto& out = outputs_.cdus[i];
    const double q_sec = loop.net.flow(loop.last_solution, loop.pump);
    const double rise = loop.net.pressure_rise(loop.last_solution, loop.pump);
    out.pump_power_w = cdu_pump_model_.electric_power_w(q_sec, rise);
    out.pump_speed = loop.pump_speed;
    out.sec_flow_m3s = q_sec;
    out.pri_flow_m3s = pri_net_.flow(pri_solution_, pri_cdu_branches_[i]);
    out.sec_supply_t_c = loop.t_supply_c;
    out.sec_return_t_c = loop.t_return_c;
    out.sec_supply_p_pa = loop.last_solution.node_pressure_pa.at(loop.supply_node);
    out.sec_return_p_pa = loop.last_solution.node_pressure_pa.at(loop.return_node);
    out.valve_position = loop.valve_position;
    out.loop_dp_pa = rise;
  }

  outputs_.pri_supply_t_c = t_pri_supply_c_;
  outputs_.pri_return_t_c = t_pri_return_c_;
  outputs_.pri_flow_m3s = q_pri_total;
  outputs_.pri_dp_pa = pri_net_.pressure_rise(pri_solution_, pri_pump_branch_);
  {
    const int n = std::max(1, outputs_.htwp_staged);
    const double per_unit = q_pri_total / n;
    outputs_.htwp_power_w =
        n * htwp_model_.electric_power_w(per_unit, outputs_.pri_dp_pa);
  }
  {
    const int n = std::max(1, outputs_.ctwp_staged);
    const double per_unit = q_ct / n;
    const double rise = ct_net_.pressure_rise(ct_solution_, ct_pump_branch_);
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
