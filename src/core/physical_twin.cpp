#include "core/physical_twin.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {

SystemConfig perturb_physical_config(const SystemConfig& config,
                                     const PhysicalTwinOptions& options) {
  SystemConfig c = config;
  const double eff = 1.0 + options.efficiency_bias;
  c.power.rectifier_efficiency = c.power.rectifier_efficiency.scaled_y(eff, 0.01, 1.0);
  c.power.sivoc_efficiency = c.power.sivoc_efficiency.scaled_y(eff, 0.01, 1.0);
  c.cooling.cdu.hex.ua_w_per_k *= 1.0 + options.hex_ua_bias;
  c.cooling.primary.ehx.ua_w_per_k *= 1.0 + options.hex_ua_bias;
  const double head = 1.0 + options.pump_head_bias;
  c.cooling.cdu.pump.design_head_pa *= head;
  c.cooling.cdu.pump.shutoff_head_pa *= head;
  c.cooling.primary.pump.design_head_pa *= head;
  c.cooling.primary.pump.shutoff_head_pa *= head;
  c.cooling.ct.pump.design_head_pa *= head;
  c.cooling.ct.pump.shutoff_head_pa *= head;
  c.validate();
  return c;
}

SyntheticPhysicalTwin::SyntheticPhysicalTwin(const SystemConfig& spec_config,
                                             const PhysicalTwinOptions& options)
    : physical_config_(perturb_physical_config(spec_config, options)),
      options_(options),
      rng_(options.seed) {}

TimeSeries SyntheticPhysicalTwin::add_noise(const TimeSeries& clean, double frac_sigma,
                                            double abs_sigma, double resample_s) {
  if (clean.empty()) return clean;
  TimeSeries source = clean;
  if (resample_s > 0.0 && clean.size() > 1) {
    const double span = clean.end_time() - clean.start_time();
    const std::size_t n = static_cast<std::size_t>(span / resample_s) + 1;
    source = clean.resample(clean.start_time(), resample_s, n);
  }
  TimeSeries noisy;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const double v = source.value(i);
    const double sigma = std::abs(v) * frac_sigma + abs_sigma;
    noisy.push_back(source.time(i), v + rng_.normal(0.0, sigma));
  }
  return noisy;
}

TelemetryDataset SyntheticPhysicalTwin::record(const std::vector<JobRecord>& jobs,
                                               const TimeSeries& wetbulb,
                                               double duration_s) {
  require(duration_s > 0.0, "physical twin recording requires positive duration");

  DigitalTwinOptions options;
  options.enable_cooling = true;
  options.collect_series = true;
  DigitalTwin twin(physical_config_, options);
  twin.set_wetbulb_series(wetbulb);
  twin.submit_all(jobs);
  twin.run_until(duration_s);

  const PhysicalTwinOptions& o = options_;
  TelemetryDataset d;
  d.system_name = physical_config_.name;
  d.start_time_s = 0.0;
  d.duration_s = duration_s;
  d.trace_quantum_s = physical_config_.simulation.trace_quantum_s;

  // Jobs with realized start times: the DT replays the physical schedule.
  for (const auto& entry : twin.engine().job_start_log()) {
    JobRecord j = entry.record;
    j.fixed_start_time_s = entry.start_time_s;
    d.jobs.push_back(std::move(j));
  }

  // System power: the paper's telemetry is 1 s; the synthetic twin records
  // on the 15 s quantum (power is piecewise-constant between quanta anyway).
  // The engine's end-of-run flush guarantees a final sample exactly at
  // duration_s, so recorded channels always span the full window.
  TimeSeries power_w;
  const TimeSeries& p_mw = twin.engine().power_series_mw();
  for (std::size_t i = 0; i < p_mw.size(); ++i) {
    power_w.push_back(p_mw.time(i), units::watts_from_mw(p_mw.value(i)));
  }
  d.measured_system_power_w = add_noise(power_w, o.sensor_noise_power_frac, 0.0, 0.0);
  d.wetbulb_c = wetbulb;

  d.cdus.resize(static_cast<std::size_t>(physical_config_.cdu_count));
  const auto& cdu_series = twin.cdu_series();
  const auto& cdu_power = twin.cdu_rack_power_series();
  for (std::size_t i = 0; i < d.cdus.size(); ++i) {
    d.cdus[i].rack_power_w = add_noise(cdu_power[i], o.sensor_noise_power_frac, 0.0, 0.0);
    d.cdus[i].htw_flow_gpm =
        add_noise(cdu_series[i].pri_flow_gpm, o.sensor_noise_flow_frac, 0.0, 0.0);
    d.cdus[i].ctw_flow_gpm =
        add_noise(cdu_series[i].sec_flow_gpm, o.sensor_noise_flow_frac, 0.0, 0.0);
    d.cdus[i].supply_temp_c =
        add_noise(cdu_series[i].supply_temp_c, 0.0, o.sensor_noise_temp_c, 0.0);
    d.cdus[i].return_temp_c =
        add_noise(cdu_series[i].return_temp_c, 0.0, o.sensor_noise_temp_c, 0.0);
    d.cdus[i].pump_power_w =
        add_noise(cdu_series[i].pump_power_w, o.sensor_noise_power_frac, 0.0, 0.0);
  }

  // Facility channels at their Table II (coarser) resolutions.
  d.facility.htw_supply_temp_c =
      add_noise(twin.htws_temp_series(), 0.0, o.sensor_noise_temp_c, 60.0);
  d.facility.htw_return_temp_c =
      add_noise(twin.pri_return_temp_series(), 0.0, o.sensor_noise_temp_c, 60.0);
  d.facility.htw_supply_pressure_pa =
      add_noise(twin.htw_supply_pressure_series(), o.sensor_noise_pressure_frac, 0.0, 30.0);
  d.facility.pue = add_noise(twin.pue_series(), 0.001, 0.0, 0.0);
  d.validate();
  return d;
}

}  // namespace exadigit
