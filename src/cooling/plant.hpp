#pragma once

/// @file plant.hpp
/// The transient thermo-fluid model of the full cooling plant (paper Fig. 5
/// and Section III-C).
///
/// Three loops joined by heat exchangers:
///   - 25 CDU-rack loops: HEX-1600 -> CDU pump -> 3 rack branches
///   - primary HTW loop: 4 HTWPs -> 5 EHX -> 25 CDU HEX branches w/ valves
///   - cooling-tower loop: 4 CTWPs -> EHX cold side -> 5x4 tower cells
///
/// Inputs per step (paper Section III-C4): heat extracted per CDU (W) and
/// the ambient wet-bulb temperature. Hydraulics are solved as steady
/// networks each step (fast dynamics), temperatures integrate explicit
/// finite volumes (slow dynamics), and the control system (Section III-C5)
/// regulates pump speeds, valve positions, fan speed, and equipment staging
/// — including the delay transfer function coupling CT staging to EHX
/// staging. The model produces 317 outputs per step, mirroring the paper's
/// FMU: 12 per CDU plus 17 plant-level values.
///
/// Hydraulic-solve deduplication (HydraulicsEval::kDedup, the default):
/// every network's exact operating point is captured as a parameter key
/// (FlowNetwork::append_parameter_key) before each step's solves.
///   - A network whose key is unchanged since its last solve skips the
///     re-solve: Newton would warm-start at the converged pressures and
///     exit after zero iterations with the same state.
///   - CDU loops share one solve: a loop whose (key, warm-start) pair
///     exactly matches an already-processed loop this step copies that
///     loop's solution, because Newton is a deterministic function of the
///     branch parameters and the warm start. In an unperturbed Frontier
///     plant all same-rack-count CDU loops track each other bit-for-bit,
///     collapsing 25 secondary solves to 2 per step.
/// Both reuses compare keys exactly (never within a tolerance), so kDedup
/// is bit-identical to the HydraulicsEval::kAlwaysSolve reference path —
/// tests/cooling/plant_dedup_test.cpp asserts this across staging,
/// blockage, and forced-pump churn.
///
/// solve_hydraulics classifies every CDU loop (skip / copy-from-donor /
/// solve) before it solves any of them. The donor scan can then compare
/// the networks' live warm-start vectors, which still hold the pre-step
/// state, with no snapshot copies. The solves and donor copies then run in
/// ascending loop order, so a donor always finishes before its copies.

#include <cstddef>
#include <limits>
#include <vector>

#include "config/system_config.hpp"
#include "controls/pid.hpp"
#include "controls/staging.hpp"
#include "cooling/cooling_tower.hpp"
#include "cooling/heat_exchanger.hpp"
#include "cooling/network.hpp"
#include "cooling/pump.hpp"

namespace exadigit {

/// Per-step boundary conditions supplied by RAPS / telemetry.
struct CoolingInputs {
  std::vector<double> cdu_heat_w;  ///< heat into each CDU's secondary loop
  double wetbulb_c = 15.0;         ///< ambient wet-bulb temperature
  double system_power_w = 0.0;     ///< P_system, used for the PUE output
};

/// Outputs for one CDU-rack loop (12 values; paper stations 12-15).
struct CduOutputs {
  double pump_power_w = 0.0;    ///< station 14 pump work
  double pump_speed = 0.0;      ///< relative speed
  double sec_flow_m3s = 0.0;    ///< secondary loop flow (station 14)
  double pri_flow_m3s = 0.0;    ///< primary branch flow (station 12)
  double sec_supply_t_c = 0.0;  ///< station 15
  double sec_return_t_c = 0.0;  ///< station 13
  double sec_supply_p_pa = 0.0;
  double sec_return_p_pa = 0.0;
  double valve_position = 0.0;  ///< primary-side control valve
  double hex_duty_w = 0.0;      ///< HEX-1600 heat transfer
  double pri_return_t_c = 0.0;  ///< primary branch outlet temperature
  double loop_dp_pa = 0.0;      ///< secondary differential pressure
};

/// Plant-level outputs (17 values) + the per-CDU blocks: 25*12+17 = 317.
struct PlantOutputs {
  std::vector<CduOutputs> cdus;
  int htwp_staged = 0;
  double htwp_speed = 0.0;
  double htwp_power_w = 0.0;
  int ehx_staged = 0;
  double pri_supply_t_c = 0.0;  ///< HTWS temperature
  double pri_return_t_c = 0.0;
  double pri_flow_m3s = 0.0;
  double pri_dp_pa = 0.0;
  int ct_cells_staged = 0;
  int ctwp_staged = 0;
  double ctwp_speed = 0.0;
  double ctwp_power_w = 0.0;
  double fan_speed = 0.0;
  double fan_power_w = 0.0;
  double ct_supply_t_c = 0.0;  ///< basin / cold water supply
  double ct_return_t_c = 0.0;
  double pue = 0.0;

  /// Total auxiliary (cooling) electric power: CDU pumps + HTWPs + CTWPs +
  /// CT fans — the paper's P_AUX set.
  [[nodiscard]] double aux_power_w() const;
  /// Heat currently rejected through the CDU heat exchangers.
  [[nodiscard]] double total_hex_duty_w() const;
};

/// The transient cooling plant model.
class CoolingPlantModel {
 public:
  /// Hydraulic-solve accounting since the last reset().
  struct HydraulicsStats {
    long long solves_performed = 0;  ///< Newton solves actually run
    long long reused_unchanged = 0;  ///< skipped: parameter key unchanged
    long long reused_shared = 0;     ///< copied from an identical CDU loop
    [[nodiscard]] long long solves_reused() const {
      return reused_unchanged + reused_shared;
    }
  };

  /// CDU heat-exchanger kernel accounting since the last reset()
  /// (batched thermal path only; the scalar reference path leaves it 0).
  struct ThermalStats {
    long long hx_evaluated = 0;  ///< elements run through the batch kernel
  };

  explicit CoolingPlantModel(const SystemConfig& config);

  /// Re-initializes all states to a quiescent plant at the given ambient.
  void reset(double ambient_c = 25.0);

  /// Advances the plant by `dt` seconds (typically the 15 s exchange
  /// quantum) under the given boundary conditions and returns the outputs.
  const PlantOutputs& step(const CoolingInputs& inputs, double dt);

  [[nodiscard]] const PlantOutputs& outputs() const { return outputs_; }
  [[nodiscard]] double time_s() const { return time_s_; }
  [[nodiscard]] int cdu_count() const { return static_cast<int>(cdu_loops_.size()); }

  /// Injects a flow blockage into one rack branch: `factor` in (0,1] scales
  /// the achievable flow (1 = clean). Models the biological-growth
  /// blockages from the paper's use-case analysis.
  void set_rack_blockage(int cdu, int rack_slot, double factor);

  /// Forces a CDU pump to a fixed relative speed (maintenance what-ifs);
  /// pass a negative value to return the pump to PID control.
  void force_cdu_pump_speed(int cdu, double speed);

  /// Overrides the basin (cold water supply) temperature setpoint as an
  /// offset below the HTW supply setpoint. The default is -4 K; autonomous
  /// setpoint optimization (L5) trades fan power against HTWS margin by
  /// moving it.
  void set_basin_setpoint_offset(double offset_k);
  [[nodiscard]] double basin_setpoint_c() const { return ct_supply_setpoint_c_; }

  /// Hydraulic evaluation strategy; seeded from CoolingConfig::hydraulics
  /// (see the dedup semantics in the file header). Switching modes mid-run
  /// is allowed and stays exact — reuse keys survive the switch.
  void set_hydraulics_eval(HydraulicsEval eval) { hydraulics_eval_ = eval; }
  [[nodiscard]] HydraulicsEval hydraulics_eval() const { return hydraulics_eval_; }

  /// Thermal HX kernel strategy; seeded from CoolingConfig::thermal.
  /// Batched and scalar are bit-identical (see heat_exchanger.hpp), so
  /// switching mid-run is allowed.
  void set_thermal_eval(ThermalEval eval) { thermal_eval_ = eval; }
  [[nodiscard]] ThermalEval thermal_eval() const { return thermal_eval_; }

  /// Solve/reuse counters since the last reset().
  [[nodiscard]] const HydraulicsStats& hydraulics_stats() const {
    return hydraulics_stats_;
  }
  /// HX kernel/memo counters since the last reset().
  [[nodiscard]] const ThermalStats& thermal_stats() const { return thermal_stats_; }
  /// Number of step() calls since the last reset().
  [[nodiscard]] long long step_count() const { return step_count_; }

 private:
  struct CduLoopState {
    FlowNetwork net;
    BranchId pump = 0;
    BranchId hex_leg = 0;
    NodeId supply_node = 0;  ///< secondary supply header (station 15 pressure)
    NodeId return_node = 0;  ///< secondary return header (station 13 pressure)
    std::vector<BranchId> rack_branches;
    Pid pump_pid;
    Pid valve_pid;
    double t_supply_c = 30.0;
    double t_return_c = 30.0;
    double valve_position = 0.7;
    double pump_speed = 0.8;
    double forced_speed = -1.0;
    NetworkSolution last_solution;
    // Dedup bookkeeping (solve_hydraulics): the parameter key, refreshed
    // in place each step (FlowNetwork::refresh_parameter_key reports
    // whether it differs from the previous step's). Donor comparisons use
    // the networks' live warm-start vectors — classification runs before
    // any of the step's solves, so they still hold the pre-step state.
    std::vector<double> key;
    bool has_solution = false;
    CduLoopState(FlowNetwork n, const PidConfig& pump_cfg, const PidConfig& valve_cfg)
        : net(std::move(n)), pump_pid(pump_cfg), valve_pid(valve_cfg) {}
  };

  SystemConfig config_;
  PumpModel cdu_pump_model_;
  PumpModel htwp_model_;
  PumpModel ctwp_model_;
  CoolingTowerBank tower_bank_;

  std::vector<CduLoopState> cdu_loops_;

  // Primary loop.
  FlowNetwork pri_net_;
  BranchId pri_pump_branch_ = 0;
  BranchId pri_ehx_branch_ = 0;
  std::vector<BranchId> pri_cdu_branches_;
  Pid htwp_pid_;
  SpeedStagingController htwp_staging_;
  double t_pri_supply_c_ = 30.0;
  double t_pri_return_c_ = 30.0;

  NetworkSolution pri_solution_;

  // Cooling-tower loop.
  FlowNetwork ct_net_;
  BranchId ct_pump_branch_ = 0;
  BranchId ct_ehx_branch_ = 0;
  BranchId ct_cell_branch_ = 0;
  NodeId ct_header_node_ = 0;
  NetworkSolution ct_solution_;
  double last_ct_header_pa_ = 0.0;
  Pid ctwp_pid_;
  Pid fan_pid_;
  SpeedStagingController ctwp_staging_;
  BandStagingController ct_cell_staging_;
  FirstOrderLag ehx_stage_lag_;
  double t_ct_supply_c_ = 25.0;
  double t_ct_return_c_ = 27.0;
  double ct_supply_setpoint_c_ = 28.5;

  // Hydraulics evaluation mode + per-network reuse state (primary and CT
  // loops only skip-unchanged; sharing applies to the CDU loop family).
  HydraulicsEval hydraulics_eval_ = HydraulicsEval::kDedup;
  HydraulicsStats hydraulics_stats_;
  ThermalStats thermal_stats_;
  std::vector<double> pri_key_;
  bool pri_has_solution_ = false;
  std::vector<double> ct_key_;
  bool ct_has_solution_ = false;

  // Classification scratch for solve_hydraulics, reused per step.
  enum class SolveAction : unsigned char { kSolve, kSkipUnchanged, kCopyDonor };
  std::vector<SolveAction> solve_actions_;
  std::vector<std::size_t> solve_donor_;

  // Thermal kernel evaluation mode + gather scratch (ThermalEval::kBatched).
  ThermalEval thermal_eval_ = ThermalEval::kBatched;
  std::vector<double> th_q_sec_;
  std::vector<double> th_q_branch_;
  std::vector<double> th_heat_;
  std::vector<double> th_hot_in_;
  std::vector<double> th_rho_cp_;
  std::vector<double> th_c_sec_;
  std::vector<double> th_c_pri_;
  std::vector<HxResult> th_hx_;

  PlantOutputs outputs_;
  double time_s_ = 0.0;
  long long step_count_ = 0;

  void build_networks();
  void update_controls(const CoolingInputs& inputs, double dt);
  void solve_hydraulics();
  void integrate_thermal(const CoolingInputs& inputs, double dt);
  void collect_outputs(const CoolingInputs& inputs);
  [[nodiscard]] double ct_header_pressure() const { return last_ct_header_pa_; }
};

}  // namespace exadigit
