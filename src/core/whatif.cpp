#include "core/whatif.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cooling/plant.hpp"
#include "raps/engine.hpp"

namespace exadigit {

std::string WhatIfResult::to_string() const {
  std::ostringstream os;
  os << "What-if scenario: " << name << '\n';
  AsciiTable t({"Metric", "Baseline", "Variant", "Delta"});
  t.add_row({"eta_system", AsciiTable::num(baseline.avg_eta_system, 4),
             AsciiTable::num(variant.avg_eta_system, 4), AsciiTable::num(delta_eta, 4)});
  t.add_row({"Avg power (MW)", AsciiTable::num(baseline.avg_power_mw, 3),
             AsciiTable::num(variant.avg_power_mw, 3),
             AsciiTable::num(variant.avg_power_mw - baseline.avg_power_mw, 3)});
  t.add_row({"Loss (MW)", AsciiTable::num(baseline.avg_loss_mw, 3),
             AsciiTable::num(variant.avg_loss_mw, 3),
             AsciiTable::num(variant.avg_loss_mw - baseline.avg_loss_mw, 3)});
  t.add_row({"CO2 (t)", AsciiTable::num(baseline.carbon_tons, 1),
             AsciiTable::num(variant.carbon_tons, 1),
             AsciiTable::num(variant.carbon_tons - baseline.carbon_tons, 1)});
  os << t.render();
  os << "Annual savings: $" << AsciiTable::num(annual_savings_usd, 0)
     << "  |  carbon reduction: " << AsciiTable::num(100.0 * carbon_delta_frac, 1) << " %\n";
  return os.str();
}

WhatIfResult run_whatif(const SystemConfig& baseline, const SystemConfig& variant,
                        const std::vector<JobRecord>& jobs, double duration_s,
                        const std::string& name) {
  require(duration_s > 0.0, "what-if duration must be positive");
  auto simulate = [&](const SystemConfig& config) {
    RapsEngine::Options options;
    options.collect_series = false;
    RapsEngine engine(config, options);
    engine.submit_all(jobs);
    engine.run_until(duration_s);
    return engine.report();
  };
  WhatIfResult r;
  r.name = name;
  r.baseline = simulate(baseline);
  r.variant = simulate(variant);
  r.delta_eta = r.variant.avg_eta_system - r.baseline.avg_eta_system;
  r.avg_power_saving_mw = r.baseline.avg_power_mw - r.variant.avg_power_mw;
  // Annualize the average power saving at the configured tariff.
  r.annual_savings_usd = r.avg_power_saving_mw * units::kHoursPerYear * 1000.0 *
                         baseline.economics.electricity_usd_per_kwh;
  if (r.baseline.carbon_tons > 0.0) {
    // Relative CO2 reduction normalized per unit of simulated time; both
    // runs cover the same window so the ratio is directly comparable.
    r.carbon_delta_frac = 1.0 - r.variant.carbon_tons / r.baseline.carbon_tons;
  }
  return r;
}

WhatIfResult run_smart_rectifier_whatif(const SystemConfig& config,
                                        const std::vector<JobRecord>& jobs,
                                        double duration_s) {
  SystemConfig variant = config;
  variant.power.load_sharing = LoadSharingPolicy::kSmartStaging;
  return run_whatif(config, variant, jobs, duration_s, "smart load-sharing rectifiers");
}

WhatIfResult run_dc380_whatif(const SystemConfig& config, const std::vector<JobRecord>& jobs,
                              double duration_s) {
  SystemConfig variant = config;
  variant.power.feed = PowerFeed::kDC380;
  return run_whatif(config, variant, jobs, duration_s, "direct 380 V DC power");
}

CoolingExtensionResult run_cooling_extension_whatif(const SystemConfig& config,
                                                    double base_system_power_w,
                                                    double extra_heat_w, double wetbulb_c) {
  require(base_system_power_w > 0.0, "base system power must be positive");
  require(extra_heat_w >= 0.0, "extra heat must be non-negative");

  auto settle = [&](double extra_w) {
    CoolingPlantModel plant(config);
    plant.reset(wetbulb_c + 4.0);
    CoolingInputs in;
    const double per_cdu =
        (config.plant_heat_w(base_system_power_w) + extra_w) /
        static_cast<double>(config.cdu_count);
    in.cdu_heat_w.assign(static_cast<std::size_t>(config.cdu_count), per_cdu);
    in.wetbulb_c = wetbulb_c;
    in.system_power_w = base_system_power_w + extra_w;
    // Six simulated hours is ample for the plant to settle.
    const double dt = config.simulation.cooling_quantum_s;
    const int steps = static_cast<int>(6.0 * 3600.0 / dt);
    for (int i = 0; i < steps; ++i) plant.step(in, dt);
    return plant.outputs();
  };

  const PlantOutputs base = settle(0.0);
  const PlantOutputs extended = settle(extra_heat_w);
  CoolingExtensionResult r;
  r.base_htws_c = base.pri_supply_t_c;
  r.extended_htws_c = extended.pri_supply_t_c;
  r.base_pue = base.pue;
  r.extended_pue = extended.pue;
  r.base_ct_cells = base.ct_cells_staged;
  r.extended_ct_cells = extended.ct_cells_staged;
  r.setpoint_held = extended.pri_supply_t_c <=
                    config.cooling.primary.htws_setpoint_c +
                        config.cooling.ct.ct_stage_temp_band_k + 0.5;
  return r;
}

}  // namespace exadigit
