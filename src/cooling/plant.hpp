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
/// the ambient wet-bulb temperature. Hydraulics take their steady state
/// each step (fast dynamics), temperatures integrate explicit
/// finite volumes (slow dynamics), and the control system (Section III-C5)
/// regulates pump speeds, valve positions, fan speed, and equipment staging
/// — including the delay transfer function coupling CT staging to EHX
/// staging. The model produces 317 outputs per step, mirroring the paper's
/// FMU: 12 per CDU plus 17 plant-level values.
///
/// Hydraulics: every loop is a pump bank in series with resistances and at
/// most one parallel group (cooling/network.hpp), so each step evaluates the
/// 27 loops in closed form, with the parameters the controls just set.
/// Nothing is iterated, skipped or shared, and each node balances its mass
/// to rounding; HydraulicsStats records the worst residual of a run.
///
/// The thermal reference (ThermalEval::kScalar) is selected only through
/// set_thermal_eval on a plant; the system descriptor and the scenario API
/// do not name it. A DigitalTwin's plant is reached through
/// DigitalTwin::cooling().

#include <cstddef>
#include <limits>
#include <vector>

#include "config/system_config.hpp"
#include "controls/pid.hpp"
#include "controls/staging.hpp"
#include "cooling/cdu_thermal.hpp"
#include "cooling/cooling_tower.hpp"
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

/// How CoolingPlantModel::integrate_thermal evaluates the CDU loops in each
/// thermal substep.
enum class ThermalEval {
  /// Default: CduColumns::substep (cooling/cdu_thermal.hpp), two CDUs per
  /// packed operation over structure-of-arrays columns, with one scalar
  /// std::exp per CDU. Bit-identical to kScalar, which
  /// tests/cooling/plant_churn_test.cpp asserts on every output and counter.
  kBatched,
  /// Reference path: one evaluate_counterflow_hx call and one volume update
  /// per CDU inside the substep loop.
  kScalar,
};

/// The transient cooling plant model.
class CoolingPlantModel {
 public:
  /// Hydraulics accounting since the last reset().
  struct HydraulicsStats {
    long long solves_performed = 0;  ///< loops evaluated: cdu_count + 2 per step
    /// Worst node mass residual over the loop's flow, across every loop
    /// evaluated.
    double max_mass_residual_rel = 0.0;
    /// Every loop is evaluated every step, so none is reused; kept for
    /// callers that report reuse.
    [[nodiscard]] long long solves_reused() const { return 0; }
  };

  /// CDU heat-exchanger accounting since the last reset(): the default
  /// (kBatched) path counts cdu_count per substep, the scalar reference
  /// path leaves it 0.
  struct ThermalStats {
    long long hx_evaluated = 0;  ///< CDU HEX evaluations by CduColumns::substep
  };

  explicit CoolingPlantModel(const SystemConfig& config);

  /// Re-initializes all states to a quiescent plant at the given ambient.
  /// A reset plant equals a fresh one reset to the same ambient: rack
  /// blockages, forced pump speeds and the basin setpoint offset are
  /// cleared too. The thermal evaluation strategy stays.
  void reset(double ambient_c = 25.0);

  /// Most thermal substeps one step may take. At Frontier's defaults a 15 s
  /// step takes 5; a step that would need more than this throws.
  static constexpr int kMaxThermalSubsteps = 4096;

  /// Advances the plant by `dt` seconds (simulation.cooling_quantum_s for
  /// every caller in the library; the twin's final partial step is shorter)
  /// under the given boundary conditions and returns the outputs.
  ///
  /// Controls and hydraulics update once, then the finite volumes integrate
  /// with explicit Euler over n equal substeps,
  ///   n = max(round(dt / thermal_substep_s), floor(dt * r) + 1),
  /// where r is the step's largest q / V_half: the largest CDU secondary
  /// flow over half the CDU volume, the primary flow over half its volume
  /// and the tower flow over half its volume. Flows hold for the step, so no
  /// substep reaches h * q / V_half = 1, where the update stops being
  /// monotone (it is unstable from 2). A step that needs more than
  /// kMaxThermalSubsteps throws a ConfigError naming the volume (or
  /// thermal_substep_s) that asks for them.
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

  /// Thermal evaluation strategy, kBatched until set. Both paths are
  /// bit-identical (see cdu_thermal.hpp), so switching mid-run is allowed.
  void set_thermal_eval(ThermalEval eval) { thermal_eval_ = eval; }
  [[nodiscard]] ThermalEval thermal_eval() const { return thermal_eval_; }

  /// Loop evaluation counters since the last reset().
  [[nodiscard]] const HydraulicsStats& hydraulics_stats() const {
    return hydraulics_stats_;
  }
  /// HX kernel/memo counters since the last reset().
  [[nodiscard]] const ThermalStats& thermal_stats() const { return thermal_stats_; }
  /// Number of step() calls since the last reset().
  [[nodiscard]] long long step_count() const { return step_count_; }

 private:
  struct CduLoopState {
    /// Pump -> rack branches in parallel (branch r is rack slot r) -> HEX leg.
    SeriesParallelLoop net;
    BranchId hex_leg = 0;
    Pid pump_pid;
    Pid valve_pid;
    double valve_position = 0.7;
    double pump_speed = 0.8;
    double forced_speed = -1.0;
    CduLoopState(SeriesParallelLoop n, const PidConfig& pump_cfg, const PidConfig& valve_cfg)
        : net(std::move(n)), pump_pid(pump_cfg), valve_pid(valve_cfg) {}
  };

  SystemConfig config_;
  PumpModel cdu_pump_model_;
  PumpModel htwp_model_;
  PumpModel ctwp_model_;
  CoolingTowerBank tower_bank_;

  std::vector<CduLoopState> cdu_loops_;
  /// The CDU loops' temperatures, and each step's flows and heats, in
  /// columns (element i is cdu_loops_[i]).
  CduColumns cdu_;

  // Primary loop: HTWP bank -> EHX bank -> CDU valves in parallel (branch i
  // serves CDU i).
  SeriesParallelLoop pri_net_;
  BranchId pri_ehx_leg_ = 0;
  Pid htwp_pid_;
  SpeedStagingController htwp_staging_;
  double t_pri_supply_c_ = 30.0;
  double t_pri_return_c_ = 30.0;

  // Cooling-tower loop: CTWP bank -> EHX cold side -> tower cells.
  SeriesParallelLoop ct_net_;
  BranchId ct_ehx_leg_ = 0;
  BranchId ct_cell_leg_ = 0;
  double last_ct_header_pa_ = 0.0;
  Pid ctwp_pid_;
  Pid fan_pid_;
  SpeedStagingController ctwp_staging_;
  BandStagingController ct_cell_staging_;
  FirstOrderLag ehx_stage_lag_;
  double t_ct_supply_c_ = 25.0;
  double t_ct_return_c_ = 27.0;
  double ct_supply_setpoint_c_ = 28.5;

  HydraulicsStats hydraulics_stats_;
  ThermalStats thermal_stats_;

  ThermalEval thermal_eval_ = ThermalEval::kBatched;

  PlantOutputs outputs_;
  double time_s_ = 0.0;
  long long step_count_ = 0;

  void build_loops();
  void update_controls(const CoolingInputs& inputs, double dt);
  void solve_hydraulics();
  /// The substep count of a step of `dt` under the current flows (see step()).
  [[nodiscard]] int thermal_substeps(double dt) const;
  void integrate_thermal(const CoolingInputs& inputs, double dt);
  void collect_outputs(const CoolingInputs& inputs);
};

}  // namespace exadigit
