/// Transient cooling-plant study: a load step (HPL launch) followed by a
/// blade-level blockage injection, watching the plant respond — the
/// forensic-diagnostics use cases from the paper's requirements analysis
/// (thermal throttling early-detection, water-quality blockages).
///
///   $ ./cooling_transient

#include <cstdio>

#include "common/table.hpp"
#include "common/units.hpp"
#include "cooling/cold_plate.hpp"
#include "cooling/plant.hpp"

using namespace exadigit;

int main() {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel plant(config);
  plant.reset(18.0);

  auto make_inputs = [&](double system_mw) {
    CoolingInputs in;
    in.cdu_heat_w.assign(static_cast<std::size_t>(config.cdu_count),
                         config.plant_heat_w(units::watts_from_mw(system_mw)) /
                             config.cdu_count);
    in.wetbulb_c = 16.0;
    in.system_power_w = units::watts_from_mw(system_mw);
    return in;
  };

  // Phase 1: settle at idle, then step to an HPL-class load.
  std::printf("=== load step: 7.3 MW idle -> 22.3 MW HPL ===\n\n");
  const CoolingInputs idle = make_inputs(7.3);
  const CoolingInputs hpl = make_inputs(22.3);
  for (int i = 0; i < 240 * 2; ++i) plant.step(idle, 15.0);

  std::vector<double> supply_trace;
  std::vector<double> return_trace;
  AsciiTable timeline({"t (min)", "sec supply (C)", "sec return (C)", "HTWS (C)",
                       "CT cells", "fan", "PUE"});
  for (int i = 0; i < 240; ++i) {
    const PlantOutputs& out = plant.step(hpl, 15.0);
    supply_trace.push_back(out.cdus[0].sec_supply_t_c);
    return_trace.push_back(out.cdus[0].sec_return_t_c);
    if (i % 24 == 23) {
      timeline.add_row({AsciiTable::num((i + 1) * 15.0 / 60.0, 0),
                        AsciiTable::num(out.cdus[0].sec_supply_t_c, 2),
                        AsciiTable::num(out.cdus[0].sec_return_t_c, 2),
                        AsciiTable::num(out.pri_supply_t_c, 2),
                        AsciiTable::integer(out.ct_cells_staged),
                        AsciiTable::num(out.fan_speed, 2), AsciiTable::num(out.pue, 4)});
    }
  }
  std::printf("%s\n", timeline.render().c_str());
  std::printf("rack supply temp  %s\n", sparkline(supply_trace, 80).c_str());
  std::printf("rack return temp  %s\n\n", sparkline(return_trace, 80).c_str());

  // Phase 2: blade blockage forensics at steady HPL load.
  std::printf("=== blockage injection: CDU 12, rack slot 1, 40 %% flow ===\n\n");
  plant.set_rack_blockage(12, 1, 0.4);
  for (int i = 0; i < 240; ++i) plant.step(hpl, 15.0);
  const PlantOutputs& out = plant.outputs();
  std::printf("CDU 12 vs fleet: flow %.0f vs %.0f gpm, return %.2f vs %.2f C\n",
              units::gpm_from_m3s(out.cdus[12].sec_flow_m3s),
              units::gpm_from_m3s(out.cdus[11].sec_flow_m3s),
              out.cdus[12].sec_return_t_c, out.cdus[11].sec_return_t_c);

  // Blade-level view: die temperatures on the blocked vs a clean blade.
  BladeThermalModel blade(frontier_cpu_cold_plate(), frontier_gpu_cold_plate());
  const double blade_flow =
      out.cdus[12].sec_flow_m3s / config.rack.blades_per_rack / 3.0;
  const NodeThermalState clean =
      blade.evaluate_node(280.0, 560.0, 4, out.cdus[11].sec_supply_t_c, blade_flow, 1.0);
  const NodeThermalState blocked =
      blade.evaluate_node(280.0, 560.0, 4, out.cdus[12].sec_supply_t_c, blade_flow, 0.4);
  std::printf("GPU die temperature: clean blade %.1f C, blocked blade %.1f C%s\n",
              clean.gpu_die_c[0], blocked.gpu_die_c[0],
              blocked.gpu_throttled ? "  ** THROTTLING **" : "");
  std::printf("-> the anomaly is visible in CDU telemetry before dies throttle,\n"
              "   which is precisely the early-detection use case.\n");
  return 0;
}
