#include <cmath>

#include "config/system_config.hpp"
#include "common/units.hpp"

namespace exadigit {

namespace {

/// Rectifier efficiency vs per-unit output power. Shape per paper Section
/// IV-3: optimum 96.3 % at 7.5 kW, 1-2 % droop near idle, slight droop
/// above the optimum. Calibrated so RAPS reproduces Table III
/// (idle 7.24 MW / HPL 22.3 MW / peak 28.2 MW).
PiecewiseLinearCurve frontier_rectifier_curve() {
  return PiecewiseLinearCurve{
      {0.0, 0.880},    {500.0, 0.917},  {1000.0, 0.935}, {2500.0, 0.947},
      {5000.0, 0.958}, {7500.0, 0.963}, {9000.0, 0.962}, {11500.0, 0.955},
      {12500.0, 0.952}, {14000.0, 0.946}};
}

/// SIVOC efficiency vs per-converter load fraction (paper: ~0.98 with a
/// small light-load droop; calibrated a shade lower so the 183-day average
/// system efficiency lands near the paper's 93.3 %).
PiecewiseLinearCurve frontier_sivoc_curve() {
  return PiecewiseLinearCurve{{0.0, 0.966},  {0.10, 0.971}, {0.23, 0.9745},
                              {0.50, 0.976}, {1.00, 0.9765}, {1.50, 0.976}};
}

PiecewiseLinearCurve tower_effectiveness_curve() {
  return PiecewiseLinearCurve{{0.0, 0.35}, {0.25, 0.55}, {0.50, 0.70},
                              {0.75, 0.80}, {1.00, 0.875}};
}

PumpConfig make_pump(double design_flow_m3s, double design_head_pa, double efficiency) {
  PumpConfig p;
  p.design_flow_m3s = design_flow_m3s;
  p.design_head_pa = design_head_pa;
  p.shutoff_head_pa = 1.35 * design_head_pa;
  p.efficiency = efficiency;
  p.rated_power_w = design_flow_m3s * design_head_pa / efficiency;
  return p;
}

}  // namespace

SystemConfig frontier_system_config() {
  SystemConfig c;
  c.name = "frontier";
  c.cdu_count = 25;
  c.racks_per_cdu = 3;
  c.rack_count = 74;  // 25 CDUs x 3 positions, one position unpopulated

  // Table I / Eq. (3) constants.
  c.node = NodeConfig{};
  c.rack = RackConfig{};

  c.power.rectifier_efficiency = frontier_rectifier_curve();
  c.power.sivoc_efficiency = frontier_sivoc_curve();
  c.power.rectifier_rated_w = 12500.0;
  c.power.sivoc_rated_w = 2800.0;  // one SIVOC per node, ~full load at node peak
  c.power.rectifiers_per_group = 4;
  c.power.blades_per_group = 8;
  c.power.load_sharing = LoadSharingPolicy::kSharedBus;
  c.power.feed = PowerFeed::kAC;
  c.power.dc_feed_efficiency = 0.9965;

  c.scheduler.policy = "fcfs";

  c.workload = WorkloadConfig{};

  c.economics.electricity_usd_per_kwh = 0.09;
  c.economics.emission_lbs_per_mwh = 852.3;

  // ---- Cooling plant (paper Fig. 5) -----------------------------------
  CoolingConfig& cool = c.cooling;

  // CDU-rack loop. Design secondary flow ~500 gpm per CDU; the constant
  // 8.7 kW pump cost in RAPS (Table I) matches the pump's electric draw at
  // the design point.
  cool.cdu.pump_avg_w = 8700.0;
  cool.cdu.secondary_design_flow_m3s = units::m3s_from_gpm(500.0);
  cool.cdu.pump = make_pump(cool.cdu.secondary_design_flow_m3s,
                            8700.0 * 0.75 / cool.cdu.secondary_design_flow_m3s,
                            0.75);
  cool.cdu.secondary_volume_m3 = 1.2;
  cool.cdu.secondary_design_dp_pa = cool.cdu.pump.design_head_pa;
  cool.cdu.hex.ua_w_per_k = 300e3;  // HEX-1600
  cool.cdu.supply_setpoint_c = 32.0;
  cool.cdu.loop_dp_setpoint_pa = 0.85 * cool.cdu.pump.design_head_pa;
  cool.cdu.rack_branch_dp_pa = 0.55 * cool.cdu.pump.design_head_pa;

  // Primary (HTW) loop: four pumps at ~5000-6000 gpm total.
  cool.primary.pump_count = 4;
  cool.primary.design_flow_m3s = units::m3s_from_gpm(5500.0);
  cool.primary.pump =
      make_pump(cool.primary.design_flow_m3s / 3.0, units::pa_from_psi(42.0), 0.78);
  cool.primary.ehx_count = 5;
  cool.primary.ehx.ua_w_per_k = 800e3;
  cool.primary.volume_m3 = 40.0;
  cool.primary.htws_setpoint_c = 26.0;
  cool.primary.dp_setpoint_pa = units::pa_from_psi(45.0);
  cool.primary.stage_up_speed = 0.92;
  cool.primary.stage_down_speed = 0.45;
  cool.primary.stage_min_interval_s = 300.0;

  // Cooling tower loop: four pumps at ~9000-10000 gpm, 5 towers x 4 cells.
  cool.ct.pump_count = 4;
  cool.ct.design_flow_m3s = units::m3s_from_gpm(9500.0);
  cool.ct.pump = make_pump(cool.ct.design_flow_m3s / 3.0, units::pa_from_psi(32.0), 0.78);
  cool.ct.tower.tower_count = 5;
  cool.ct.tower.cells_per_tower = 4;
  cool.ct.tower.fan_rated_w = 37e3;
  cool.ct.tower.design_approach_k = 4.0;
  cool.ct.tower.effectiveness = tower_effectiveness_curve();
  cool.ct.volume_m3 = 90.0;
  cool.ct.header_pressure_setpoint_pa = units::pa_from_psi(21.0);
  cool.ct.stage_up_speed = 0.92;
  cool.ct.stage_down_speed = 0.45;
  cool.ct.stage_min_interval_s = 300.0;
  cool.ct.ct_stage_temp_band_k = 1.5;
  cool.ct.ct_stage_min_interval_s = 600.0;

  cool.cooling_efficiency = 0.945;
  cool.staging_delay_s = 120.0;
  cool.thermal_substep_s = 3.0;

  c.simulation = SimulationConfig{};

  c.validate();
  return c;
}

SystemConfig setonix_like_config() {
  SystemConfig c = frontier_system_config();
  c.name = "setonix-like";
  c.cdu_count = 4;
  c.racks_per_cdu = 3;
  c.rack_count = 12;

  // CPU-only partition + GPU partition (Section V multi-partition support).
  PartitionConfig cpu_part;
  cpu_part.name = "work";
  cpu_part.node_count = 1024;
  cpu_part.node = c.node;
  cpu_part.node.gpus_per_node = 0;
  cpu_part.node.cpus_per_node = 2;

  PartitionConfig gpu_part;
  gpu_part.name = "gpu";
  gpu_part.node_count = 512;
  gpu_part.node = c.node;

  c.partitions = {cpu_part, gpu_part};

  // Scale workload down with the machine.
  c.workload.mean_nodes = 16.0;
  c.workload.std_nodes = 24.0;
  c.workload.mean_arrival_s = 120.0;

  c.validate();
  return c;
}

}  // namespace exadigit
