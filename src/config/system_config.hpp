#pragma once

/// @file system_config.hpp
/// System descriptors: everything the twin needs to know about a machine.
///
/// Mirrors the paper's generalization strategy (Section V): the supercomputer
/// architecture, power-conversion chain, cooling plant, scheduler, and
/// economics are all *data*, loadable from JSON, so modeling a new machine
/// means writing a descriptor rather than code. `frontier_system_config()`
/// returns the descriptor used throughout the paper (Table I and Section
/// III constants).
///
/// A descriptor says what the machine is, not how the twin evaluates it.
/// The fast paths and the references the tests hold them to are chosen on
/// the object that runs them: RapsEngine::Options (engine mode and power
/// evaluation) and CoolingPlantModel::set_thermal_eval.

#include <cstdint>
#include <string>
#include <vector>

#include "common/curve.hpp"
#include "json/json.hpp"

namespace exadigit {

/// One node's power by component at given utilizations: Eq. (3)'s terms.
struct NodePowerSplit {
  double cpus_w = 0.0;
  double gpus_w = 0.0;
  double nics_w = 0.0;
  double ram_w = 0.0;
  double nvme_w = 0.0;
};

/// Per-node component power model (paper Eq. (3) constants, Table I).
struct NodeConfig {
  int cpus_per_node = 1;
  int gpus_per_node = 4;
  int nics_per_node = 4;
  int nvme_per_node = 2;
  double cpu_idle_w = 90.0;
  double cpu_peak_w = 280.0;
  double gpu_idle_w = 88.0;
  double gpu_peak_w = 560.0;
  double ram_avg_w = 74.0;   ///< whole-node DIMM average
  double nic_w = 20.0;       ///< per NIC (4x -> Table I "NIC (Avg) 80 W")
  double nvme_w = 15.0;      ///< per drive (2x -> Table I "NVMe (Avg) 30 W")

  /// Idle / peak node power from Eq. (3) at 0% / 100% utilization.
  [[nodiscard]] double idle_power_w() const;
  [[nodiscard]] double peak_power_w() const;
  /// Eq. (3)'s terms at the given utilizations, clamped to [0,1]: each
  /// CPU and GPU interpolates linearly between idle and peak (paper Section
  /// III-B2); NICs, RAM and NVMe draw their averages.
  [[nodiscard]] NodePowerSplit power_split(double cpu_util, double gpu_util) const;
  /// Eq. (3): the sum of power_split's terms, in their declared order.
  [[nodiscard]] double power_w(double cpu_util, double gpu_util) const;
};

/// Rack organization (paper Fig. 3, Table I).
struct RackConfig {
  int chassis_per_rack = 8;
  int rectifiers_per_rack = 32;
  int blades_per_rack = 64;
  int nodes_per_rack = 128;
  int sivocs_per_rack = 128;
  int switches_per_rack = 32;
  double switch_avg_w = 250.0;
};

/// How rectifier groups distribute load (paper Section IV what-if 1).
enum class LoadSharingPolicy {
  kSharedBus,      ///< baseline: all 4 rectifiers share the chassis load
  kSmartStaging,   ///< stage rectifiers on/off to stay near peak efficiency
};

/// Facility feed (paper Section IV what-if 2).
enum class PowerFeed {
  kAC,     ///< three-phase AC -> rectifier -> 380 V DC bus
  kDC380,  ///< direct 380 V DC feed; rectification losses removed
};

/// Power conversion chain (paper Fig. 3, Eqs. (1)-(2), Section III-B1);
/// ConversionChain (power/conversion.hpp) evaluates it.
struct PowerChainConfig {
  /// Rectifier efficiency vs per-rectifier output power (W). Peak 96.3 %
  /// near 7.5 kW, 1-2 % droop near idle (paper Section IV-3).
  PiecewiseLinearCurve rectifier_efficiency;
  /// SIVOC efficiency vs per-converter load fraction in [0,1] (~0.98).
  PiecewiseLinearCurve sivoc_efficiency;
  double rectifier_rated_w = 12500.0;  ///< per-rectifier nameplate
  double sivoc_rated_w = 2800.0;       ///< per-SIVOC nameplate (one per node)
  int rectifiers_per_group = 4;        ///< chassis group on a shared DC bus
  int blades_per_group = 8;
  LoadSharingPolicy load_sharing = LoadSharingPolicy::kSharedBus;
  PowerFeed feed = PowerFeed::kAC;
  /// Residual distribution efficiency in kDC380 mode (protection, buswork).
  double dc_feed_efficiency = 0.993;
};

/// A schedulable partition (Section V generalization: e.g. Setonix has
/// CPU-only and CPU+GPU partitions). Frontier has a single partition.
struct PartitionConfig {
  std::string name = "batch";
  int node_count = 0;
  NodeConfig node;
};

/// Scheduling policy selection for the RAPS built-in scheduler (Section
/// III-B4). The policy is an *open* string resolved against the
/// SchedulingPolicyRegistry (raps/policy/policy_registry.hpp) when the
/// Scheduler is built; built-ins are "fcfs", "sjf", "easy_backfill",
/// "priority", "power_capped" and "price_aware". JSON parsing validates the
/// name against the registered set (see config_json.hpp) so typos fail at
/// config load, not mid-run.
struct SchedulerConfig {
  std::string policy = "fcfs";
  /// Free-form parameter block handed to the policy factory (null = policy
  /// defaults). Unknown keys are ConfigErrors at Scheduler construction.
  /// E.g. {"cap_mw": 25.0} for "power_capped", {"aging_weight": 2.0,
  /// "user_weights": {"alice": 10.0}} for "priority".
  Json policy_params;
  /// Maximum queue length before arrivals are rejected (0 = unbounded).
  int max_queue_depth = 0;
};

/// Synthetic workload generator parameters (Section III-B3): means/stddevs
/// estimated from telemetry.
struct WorkloadConfig {
  double mean_arrival_s = 55.0;       ///< t_avg in Eq. (5)
  double mean_nodes = 268.0;          ///< Table IV "Avg Nodes per Job"
  double std_nodes = 626.0;
  double mean_walltime_s = 39.0 * 60;  ///< Table IV "Avg Runtime"
  double std_walltime_s = 30.0 * 60;
  double mean_cpu_util = 0.42;
  double std_cpu_util = 0.16;
  double mean_gpu_util = 0.70;
  double std_gpu_util = 0.22;
};

/// Economic and carbon accounting (paper Eq. (6) and Section IV-3).
struct EconomicsConfig {
  double electricity_usd_per_kwh = 0.09;  ///< back-derived: 1.14 MW ~ $900k/yr
  /// Emission intensity EI in lb CO2 per MWh (paper: 852.3).
  double emission_lbs_per_mwh = 852.3;
};

/// One circulating pump's quadratic curve + motor ratings.
/// Head model: dP(Q, s) = s^2 * shutoff_pa - (shutoff_pa - design_pa)
///                         * (Q / (s * design_m3s))^2 * s^2
/// which passes through (design_m3s, design_pa) at s = 1 and obeys the
/// affinity laws under speed scaling.
struct PumpConfig {
  double design_flow_m3s = 0.0;
  double design_head_pa = 0.0;
  double shutoff_head_pa = 0.0;  ///< head at Q = 0, full speed
  double rated_power_w = 0.0;    ///< shaft power at design point
  double efficiency = 0.75;      ///< wire-to-water at design point
  double min_speed = 0.2;        ///< minimum controllable relative speed
};

/// Counterflow heat exchanger sizing.
struct HeatExchangerConfig {
  double ua_w_per_k = 0.0;  ///< overall conductance at design flows
};

/// Cooling tower cell (variable-speed fan, Merkel-style effectiveness).
struct CoolingTowerConfig {
  int tower_count = 5;
  int cells_per_tower = 4;
  double fan_rated_w = 30000.0;    ///< per cell at 100 % speed
  double design_approach_k = 4.0;  ///< T_out - T_wetbulb at design load
  /// Effectiveness vs fan-speed fraction (0..1): fraction of (T_in - T_wb)
  /// removed by one cell at design water flow.
  PiecewiseLinearCurve effectiveness;
};

/// CDU-rack loop (25x; paper Fig. 5 stations 12-15).
struct CduLoopConfig {
  double pump_avg_w = 8700.0;           ///< paper Table I "CDU (Avg)"
  PumpConfig pump;                      ///< per-CDU circulation pump pair
  double secondary_volume_m3 = 1.2;     ///< coolant inventory in loop
  double secondary_design_flow_m3s = 0.0315;  ///< ~500 gpm
  double secondary_design_dp_pa = 0.0;  ///< filled by factory
  HeatExchangerConfig hex;              ///< HEX-1600
  double supply_setpoint_c = 32.0;      ///< secondary supply temperature
  double loop_dp_setpoint_pa = 150e3;   ///< pump-speed PID target
  /// Rack branch quadratic coefficient derives from design flow split.
  double rack_branch_dp_pa = 120e3;
};

/// Primary (high-temperature water) loop: 4 HTWPs + 5 EHX (Fig. 5 st. 5-11).
struct PrimaryLoopConfig {
  int pump_count = 4;
  PumpConfig pump;                     ///< per-HTWP
  int ehx_count = 5;
  HeatExchangerConfig ehx;             ///< per intermediate heat exchanger
  double volume_m3 = 40.0;             ///< loop coolant inventory
  double design_flow_m3s = 0.347;      ///< ~5500 gpm total
  double htws_setpoint_c = 32.0;       ///< hot temperature water supply
  double dp_setpoint_pa = 200e3;       ///< differential pressure target
  double stage_up_speed = 0.92;        ///< stage a pump on above this speed
  double stage_down_speed = 0.45;      ///< stage a pump off below this speed
  double stage_min_interval_s = 300.0; ///< anti-short-cycling
};

/// Cooling-tower water loop: 4 CTWPs + tower cells (Fig. 5 st. 1-4).
struct CtLoopConfig {
  int pump_count = 4;
  PumpConfig pump;                     ///< per-CTWP
  CoolingTowerConfig tower;
  double volume_m3 = 90.0;             ///< includes basin inventory
  double design_flow_m3s = 0.6;        ///< ~9500 gpm total
  double header_pressure_setpoint_pa = 170e3;
  double stage_up_speed = 0.92;
  double stage_down_speed = 0.45;
  double stage_min_interval_s = 300.0;
  /// CT staging: stage up when HTWS drifts above setpoint by this margin
  /// (and its gradient is positive), down when below.
  double ct_stage_temp_band_k = 1.5;
  double ct_stage_min_interval_s = 600.0;
};

/// Whole cooling plant (paper Fig. 5) + coupling constants.
struct CoolingConfig {
  CduLoopConfig cdu;
  PrimaryLoopConfig primary;
  CtLoopConfig ct;
  /// Fraction of rack electrical power appearing as heat in the coolant
  /// (paper Section III-B2: 0.945, from telemetry heat-removed / power).
  double cooling_efficiency = 0.945;
  /// First-order lag (s) of the CT-loop / primary-loop staging interaction
  /// (the paper's "delay transfer function", Section III-C5).
  double staging_delay_s = 120.0;
  /// Internal thermal substep for the finite-volume integrator, in
  /// (0, simulation.cooling_quantum_s]: every plant caller steps the plant
  /// at that one exchange quantum. A step is split further when its flows
  /// need it, so that no substep moves a half-volume's worth of coolant
  /// through any volume (CoolingPlantModel::step).
  double thermal_substep_s = 3.0;
};

/// Simulation clocking (paper Algorithm 1).
struct SimulationConfig {
  double tick_s = 1.0;            ///< scheduler/power tick (event-time grid)
  /// The RAPS <-> plant exchange quantum (paper: 15 s); every plant caller
  /// steps the plant by it.
  double cooling_quantum_s = 15.0;
  double trace_quantum_s = 15.0;    ///< CPU/GPU utilization trace resolution
};

/// Complete machine + plant descriptor.
struct SystemConfig {
  std::string name = "frontier";
  int cdu_count = 25;
  int racks_per_cdu = 3;
  int rack_count = 74;
  NodeConfig node;
  RackConfig rack;
  PowerChainConfig power;
  SchedulerConfig scheduler;
  WorkloadConfig workload;
  EconomicsConfig economics;
  CoolingConfig cooling;
  SimulationConfig simulation;
  /// Partitions; when empty a single partition covering all nodes is
  /// implied. Multi-partition machines (Setonix) list several.
  std::vector<PartitionConfig> partitions;

  [[nodiscard]] int total_nodes() const { return rack_count * rack.nodes_per_rack; }
  [[nodiscard]] int total_blades() const { return rack_count * rack.blades_per_rack; }
  [[nodiscard]] int total_rectifiers() const { return rack_count * rack.rectifiers_per_rack; }
  [[nodiscard]] int total_switches() const { return rack_count * rack.switches_per_rack; }
  /// The CDU pumps' constant draw, Eq. (4)'s last term (paper Section
  /// III-B2: 8.7 kW x 25 CDUs = 217.5 kW).
  [[nodiscard]] double cdu_pump_power_w() const {
    return cooling.cdu.pump_avg_w * static_cast<double>(cdu_count);
  }
  /// The heat the cooling plant takes from `wall_w` of IT wall power: the
  /// one hand-off from RAPS power to plant heat.
  [[nodiscard]] double plant_heat_w(double wall_w) const {
    return wall_w * cooling.cooling_efficiency;
  }

  /// Number of racks served by CDU `cdu` (the last Frontier CDU serves 2).
  [[nodiscard]] int racks_for_cdu(int cdu) const;
  /// First rack index served by CDU `cdu`.
  [[nodiscard]] int first_rack_of_cdu(int cdu) const { return cdu * racks_per_cdu; }
  /// CDU serving rack `rack_index`.
  [[nodiscard]] int cdu_of_rack(int rack_index) const { return rack_index / racks_per_cdu; }
  /// Rack containing node `node_index` (nodes are numbered rack-major).
  [[nodiscard]] int rack_of_node(int node_index) const {
    return node_index / rack.nodes_per_rack;
  }

  /// Validates cross-field consistency; throws ConfigError with a precise
  /// message on the first violation.
  void validate() const;
};

/// The machine studied in the paper: Frontier + its central energy plant.
[[nodiscard]] SystemConfig frontier_system_config();

/// A small multi-partition machine in the style of Pawsey's Setonix, used to
/// exercise the generalized (Section V) code paths at test scale.
[[nodiscard]] SystemConfig setonix_like_config();

}  // namespace exadigit
