/// Built-in scenario factories: thin adapters from the declarative
/// ScenarioSpec onto the core domain kernels (whatif, replay, experiment,
/// thermal_scan, autonomous). Each adapter derives its inputs from the spec
/// exactly the way the legacy CLI entry points did, so a registry run is
/// bit-identical to the corresponding direct call under the same seed.

#include <cstdint>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/autonomous.hpp"
#include "core/digital_twin.hpp"
#include "core/experiment.hpp"
#include "core/replay.hpp"
#include "core/thermal_scan.hpp"
#include "core/whatif.hpp"
#include "raps/workload.hpp"
#include "scenario/scenario_registry.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/store.hpp"

namespace exadigit {
namespace {

// --- spec helpers ----------------------------------------------------------

/// Rejects params keys outside `allowed` — params is the most typo-prone
/// layer of a batch file, and an ignored key silently runs defaults.
void check_params(const ScenarioSpec& spec, const std::set<std::string>& allowed) {
  if (!spec.params.is_object()) return;
  for (const auto& [key, value] : spec.params.as_object()) {
    (void)value;
    if (allowed.count(key) == 0) {
      std::string known;
      for (const std::string& k : allowed) known += known.empty() ? k : ", " + k;
      throw ConfigError("scenario \"" + spec.name + "\" (" + spec.type +
                        "): unknown params field \"" + key + "\"" +
                        (known.empty() ? " (type takes no params)"
                                       : " (known: " + known + ")"));
    }
  }
}

bool param_bool(const ScenarioSpec& spec, const std::string& key, bool fallback) {
  return spec.params.is_object() ? spec.params.bool_or(key, fallback) : fallback;
}

double param_number(const ScenarioSpec& spec, const std::string& key, double fallback) {
  return spec.params.is_object() ? spec.params.number_or(key, fallback) : fallback;
}

/// Json::int32_or refuses what int cannot hold rather than wrapping it.
int param_int(const ScenarioSpec& spec, const std::string& key, int fallback) {
  if (!spec.params.is_object()) return fallback;
  try {
    return spec.params.int32_or(key, fallback);
  } catch (const JsonTypeError& e) {
    throw ConfigError("scenario \"" + spec.name + "\" (" + spec.type + "): params." + key +
                      ": " + e.what());
  }
}

/// The workload the legacy CLI paths drew: Rng(seed) over the horizon.
std::vector<JobRecord> spec_workload(const ScenarioSpec& spec, const SystemConfig& config) {
  WorkloadGenerator gen(config.workload, config, Rng(spec.seed_or(42)));
  return gen.generate(0.0, spec.horizon_s());
}

void add_report_metrics(ScenarioResult& r, const Report& report) {
  r.add_metric("jobs_completed", static_cast<double>(report.jobs_completed));
  r.add_metric("jobs_rejected", static_cast<double>(report.jobs_rejected));
  r.add_metric("max_queue_depth", static_cast<double>(report.max_queue_depth));
  r.add_metric("avg_wait_s", report.avg_wait_s);
  r.add_metric("makespan_s", report.makespan_s);
  r.add_metric("avg_power_mw", report.avg_power_mw);
  r.add_metric("total_energy_mwh", report.total_energy_mwh);
  r.add_metric("avg_loss_mw", report.avg_loss_mw);
  r.add_metric("avg_eta_system", report.avg_eta_system);
  r.add_metric("avg_utilization", report.avg_utilization);
  r.add_metric("carbon_tons", report.carbon_tons);
  r.add_metric("energy_cost_usd", report.energy_cost_usd);
}

// --- workflow adapters -----------------------------------------------------

ScenarioResult run_simulate_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"cooling", "policy", "policy_params"});
  SystemConfig config = spec.resolve_config();
  // "policy" / "policy_params": scheduling policy for the built-in
  // scheduler (see raps/policy/). Equivalent to a config delta on
  // scheduler.policy / scheduler.params; validated here so a typo fails
  // before the twin is built.
  if (spec.params.is_object() && spec.params.contains("policy")) {
    const std::string policy = spec.params.at("policy").as_string();
    require_scheduler_policy_name(policy);
    config.scheduler.policy = policy;
  }
  if (spec.params.is_object() && spec.params.contains("policy_params")) {
    config.scheduler.policy_params = spec.params.at("policy_params");
  }
  const std::uint64_t seed = spec.seed_or(42);
  const bool cooling = param_bool(spec, "cooling", true);
  const double duration = spec.horizon_s();

  DigitalTwinOptions options;
  options.enable_cooling = cooling;
  DigitalTwin twin(config, options);
  if (cooling) twin.set_wetbulb_series(synthetic_wetbulb_series(duration, seed + 1));
  WorkloadGenerator gen(config.workload, config, Rng(seed));
  twin.submit_all(gen.generate(0.0, duration));
  twin.run_until(duration);

  ScenarioResult r;
  r.report = twin.report();
  add_report_metrics(r, *r.report);
  r.channels["power_mw"] = twin.engine().power_series_mw();
  r.channels["eta_system"] = twin.engine().eta_series();
  r.channels["utilization"] = twin.engine().utilization_series();
  if (cooling) {
    r.channels["pue"] = twin.pue_series();
    r.channels["htws_c"] = twin.htws_temp_series();
  }
  r.text = r.report->to_string();
  return r;
}

ScenarioResult run_replay_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"cooling"});
  const SystemConfig config = spec.resolve_config();
  const bool cooling = param_bool(spec, "cooling", true);
  // The one place a replay decides how its telemetry arrives: an
  // exadigit-bin dataset (so named, or so by its manifest) streams off
  // disk, decoding only the channels replay reads, one chunk resident at a
  // time; every other source is resolved whole, through the dataset loader
  // a long-lived service keeps resident, and only its system channels are
  // kept: the resolved dataset is released (unless a service holds it)
  // before the replay steps.
  const ScenarioSource& source = spec.source;
  const bool streams = source.kind == ScenarioSource::Kind::kDataset &&
                       (source.format.empty() ? read_manifest(source.path).format
                                              : source.format) == kExadigitBinFormat;
  PowerReplayResult pr;
  if (streams) {
    BinChunkSource chunks(source.path);
    pr = replay_power(config, chunks, cooling);
  } else {
    InMemoryChunkSource system = system_channel_source(*spec.resolve_dataset(config));
    pr = replay_power(config, system, cooling);
  }

  ScenarioResult r;
  // A jobs-only source (an SWF trace) has no measured power to score.
  if (!pr.measured_power_mw.empty()) {
    r.add_metric("power_rmse_mw", pr.power_score.rmse);
    r.add_metric("power_mae_mw", pr.power_score.mae);
    r.add_metric("power_mape_pct", pr.power_score.mape_pct);
    r.add_metric("power_pearson", pr.power_score.pearson);
  }
  add_report_metrics(r, pr.report);
  r.channels["predicted_power_mw"] = pr.predicted_power_mw;
  r.channels["measured_power_mw"] = pr.measured_power_mw;
  r.channels["eta_system"] = pr.eta_system;
  r.channels["utilization"] = pr.utilization;
  if (cooling) {
    r.channels["pue"] = pr.pue;
    r.channels["cooling_efficiency"] = pr.cooling_eff;
  }
  r.report = pr.report;
  r.text = pr.report.to_string();
  return r;
}

ScenarioResult run_cooling_validation_scenario(const ScenarioSpec& spec) {
  check_params(spec, {});
  const SystemConfig config = spec.resolve_config();
  const CoolingValidationResult cv = validate_cooling(config, *spec.resolve_dataset(config));

  ScenarioResult r;
  r.add_metric("pue_max_rel_error_pct", 100.0 * cv.pue_max_rel_error);
  r.add_metric("flow_rmse_gpm", cv.cdu_pri_flow.rmse);
  r.add_metric("return_temp_rmse_c", cv.cdu_return_temp.rmse);
  r.add_metric("pressure_rmse_pa", cv.htw_supply_pressure.rmse);
  r.add_metric("pue_rmse", cv.pue.rmse);
  r.channels["predicted_flow_gpm"] = cv.predicted_flow_gpm;
  r.channels["measured_flow_gpm"] = cv.measured_flow_gpm;
  r.channels["predicted_return_c"] = cv.predicted_return_c;
  r.channels["measured_return_c"] = cv.measured_return_c;
  r.channels["predicted_pue"] = cv.predicted_pue;
  r.channels["measured_pue"] = cv.measured_pue;
  return r;
}

void fill_whatif_result(ScenarioResult& r, const WhatIfResult& w) {
  r.add_metric("delta_eta", w.delta_eta);
  r.add_metric("avg_power_saving_mw", w.avg_power_saving_mw);
  r.add_metric("annual_savings_usd", w.annual_savings_usd);
  r.add_metric("carbon_delta_frac", w.carbon_delta_frac);
  r.add_metric("baseline_avg_power_mw", w.baseline.avg_power_mw);
  r.add_metric("variant_avg_power_mw", w.variant.avg_power_mw);
  r.add_metric("baseline_eta", w.baseline.avg_eta_system);
  r.add_metric("variant_eta", w.variant.avg_eta_system);
  r.report = w.variant;
  r.text = w.to_string();
}

ScenarioResult run_smart_rectifier_scenario(const ScenarioSpec& spec) {
  check_params(spec, {});
  const SystemConfig config = spec.resolve_config();
  ScenarioResult r;
  fill_whatif_result(
      r, run_smart_rectifier_whatif(config, spec_workload(spec, config), spec.horizon_s()));
  return r;
}

ScenarioResult run_dc380_scenario(const ScenarioSpec& spec) {
  check_params(spec, {});
  const SystemConfig config = spec.resolve_config();
  ScenarioResult r;
  fill_whatif_result(r,
                     run_dc380_whatif(config, spec_workload(spec, config), spec.horizon_s()));
  return r;
}

/// Generic config-delta what-if: `params.variant` is a merge patch applied
/// on top of the scenario's own resolved config.
ScenarioResult run_generic_whatif_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"variant"});
  require(spec.params.is_object() && spec.params.contains("variant"),
          "whatif scenario requires params.variant (a config merge patch)");
  const SystemConfig config = spec.resolve_config();
  const SystemConfig variant = system_config_from_json(
      Json::merge_patch(system_config_to_json(config), spec.params.at("variant")));
  ScenarioResult r;
  fill_whatif_result(r, run_whatif(config, variant, spec_workload(spec, config),
                                   spec.horizon_s(), spec.name));
  return r;
}

ScenarioResult run_cooling_extension_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"base_power_mw", "extra_heat_mw", "wetbulb_c"});
  const SystemConfig config = spec.resolve_config();
  const double base_mw = param_number(spec, "base_power_mw", 17.0);
  const double extra_mw = param_number(spec, "extra_heat_mw", 6.0);
  const double wetbulb = param_number(spec, "wetbulb_c", 16.0);
  const CoolingExtensionResult ce = run_cooling_extension_whatif(
      config, units::watts_from_mw(base_mw), units::watts_from_mw(extra_mw), wetbulb);

  ScenarioResult r;
  r.add_metric("extended_pue", ce.extended_pue);
  r.add_metric("base_pue", ce.base_pue);
  r.add_metric("base_htws_c", ce.base_htws_c);
  r.add_metric("extended_htws_c", ce.extended_htws_c);
  r.add_metric("base_ct_cells", static_cast<double>(ce.base_ct_cells));
  r.add_metric("extended_ct_cells", static_cast<double>(ce.extended_ct_cells));
  r.add_metric("setpoint_held", ce.setpoint_held ? 1.0 : 0.0);
  return r;
}

ScenarioResult run_day_sweep_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"days", "vary_days", "hpl_day_probability", "cooling"});
  const SystemConfig config = spec.resolve_config();
  DaySweepConfig sweep;
  sweep.days = param_int(spec, "days", 7);
  sweep.seed = spec.seed_or(sweep.seed);
  sweep.vary_days = param_bool(spec, "vary_days", sweep.vary_days);
  sweep.hpl_day_probability =
      param_number(spec, "hpl_day_probability", sweep.hpl_day_probability);
  sweep.with_cooling = param_bool(spec, "cooling", sweep.with_cooling);
  const DaySweepResult ds = run_day_sweep(config, sweep);

  ScenarioResult r;
  double jobs = 0.0;
  double energy = 0.0;
  double carbon = 0.0;
  double power = 0.0;
  TimeSeries daily_power, daily_energy;
  for (std::size_t d = 0; d < ds.daily.size(); ++d) {
    const Report& day = ds.daily[d];
    jobs += day.jobs_completed;
    energy += day.total_energy_mwh;
    carbon += day.carbon_tons;
    power += day.avg_power_mw;
    const double t = static_cast<double>(d) * units::kSecondsPerDay;
    daily_power.push_back(t, day.avg_power_mw);
    daily_energy.push_back(t, day.total_energy_mwh);
  }
  r.add_metric("days", static_cast<double>(ds.daily.size()));
  r.add_metric("jobs_completed", jobs);
  r.add_metric("avg_power_mw", power / static_cast<double>(ds.daily.size()));
  r.add_metric("total_energy_mwh", energy);
  r.add_metric("carbon_tons", carbon);
  r.channels["daily_avg_power_mw"] = std::move(daily_power);
  r.channels["daily_energy_mwh"] = std::move(daily_energy);
  r.text = ds.table();
  return r;
}

ScenarioResult run_thermal_scan_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"anomaly_sigma"});
  const SystemConfig config = spec.resolve_config();
  const std::uint64_t seed = spec.seed_or(42);
  const double duration = spec.horizon_s();

  DigitalTwin twin(config, DigitalTwinOptions{});
  twin.set_wetbulb_series(synthetic_wetbulb_series(duration, seed + 1));
  WorkloadGenerator gen(config.workload, config, Rng(seed));
  twin.submit_all(gen.generate(0.0, duration));
  twin.run_until(duration);

  ThermalScanConfig scan;
  scan.anomaly_sigma = param_number(spec, "anomaly_sigma", scan.anomaly_sigma);
  const ThermalScanResult ts =
      scan_fleet_thermals(twin.engine(), twin.cooling().outputs(), scan);

  ScenarioResult r;
  r.add_metric("fleet_max_gpu_c", ts.fleet_max_gpu_c);
  r.add_metric("fleet_mean_gpu_c", ts.fleet_mean_gpu_c);
  r.add_metric("throttled_nodes", static_cast<double>(ts.throttled_nodes));
  r.add_metric("anomalies", static_cast<double>(ts.anomalies.size()));
  r.add_metric("nodes_scanned", static_cast<double>(ts.readings.size()));
  // Rack profile exported as a series over rack index (not wall time).
  TimeSeries rack_profile;
  for (std::size_t i = 0; i < ts.rack_max_gpu_c.size(); ++i) {
    rack_profile.push_back(static_cast<double>(i), ts.rack_max_gpu_c[i]);
  }
  r.channels["rack_max_gpu_c"] = std::move(rack_profile);
  return r;
}

/// One variant of a policy_sweep: a policy name, its params, and a unique
/// display label ("fcfs", "power_capped@25", ...).
struct PolicyVariant {
  std::string label;
  std::string policy;
  Json params;
};

std::vector<PolicyVariant> parse_policy_variants(const ScenarioSpec& spec) {
  require(spec.params.is_object() && spec.params.contains("policies") &&
              spec.params.at("policies").is_array(),
          "policy_sweep scenario requires params.policies (an array)");
  std::vector<PolicyVariant> variants;
  std::set<std::string> labels;
  for (const Json& entry : spec.params.at("policies").as_array()) {
    PolicyVariant v;
    if (entry.is_string()) {
      v.policy = entry.as_string();
      v.label = v.policy;
    } else if (entry.is_object()) {
      for (const auto& [key, value] : entry.as_object()) {
        (void)value;
        require(key == "policy" || key == "params" || key == "label",
                "policy_sweep entry fields are policy/params/label, got \"" + key + "\"");
      }
      require(entry.contains("policy"), "policy_sweep entry requires \"policy\"");
      v.policy = entry.at("policy").as_string();
      if (entry.contains("params")) v.params = entry.at("params");
      v.label = entry.string_or("label", v.policy);
    } else {
      throw ConfigError("policy_sweep entries must be policy-name strings or objects");
    }
    require_scheduler_policy_name(v.policy);
    require(labels.insert(v.label).second,
            "policy_sweep labels must be unique; duplicate \"" + v.label +
                "\" (set \"label\" on variants sharing a policy)");
    variants.push_back(std::move(v));
  }
  require(!variants.empty(), "policy_sweep requires at least one policy");
  return variants;
}

/// Fans one spec out to N scheduling-policy variants over the *same*
/// workload (same seed, same jobs) and tabulates the policy-study metrics
/// the Maiterth et al. follow-on paper compares: makespan, queue wait,
/// energy, peak power. ROADMAP item 4.
ScenarioResult run_policy_sweep_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"policies", "cooling"});
  const SystemConfig base = spec.resolve_config();
  const std::vector<PolicyVariant> variants = parse_policy_variants(spec);
  // Policy studies compare scheduling outcomes; cooling co-simulation is
  // off by default to keep an N-way sweep cheap.
  const bool cooling = param_bool(spec, "cooling", false);
  const std::uint64_t seed = spec.seed_or(42);
  const double duration = spec.horizon_s();
  const std::vector<JobRecord> jobs = spec_workload(spec, base);

  ScenarioResult r;
  r.add_metric("policies", static_cast<double>(variants.size()));
  r.add_metric("jobs_submitted", static_cast<double>(jobs.size()));
  AsciiTable table({"Policy", "Jobs", "Makespan (h)", "Avg wait (s)", "Energy (MWh)",
                    "Peak (MW)", "Rejected"});
  for (const PolicyVariant& v : variants) {
    SystemConfig config = base;
    config.scheduler.policy = v.policy;
    config.scheduler.policy_params = v.params;
    DigitalTwinOptions options;
    options.enable_cooling = cooling;
    DigitalTwin twin(config, options);
    if (cooling) twin.set_wetbulb_series(synthetic_wetbulb_series(duration, seed + 1));
    twin.submit_all(jobs);
    twin.run_until(duration);
    const Report report = twin.report();

    r.add_metric(v.label + ".jobs_completed", static_cast<double>(report.jobs_completed));
    r.add_metric(v.label + ".makespan_s", report.makespan_s);
    r.add_metric(v.label + ".avg_wait_s", report.avg_wait_s);
    r.add_metric(v.label + ".total_energy_mwh", report.total_energy_mwh);
    r.add_metric(v.label + ".max_power_mw", report.max_power_mw);
    r.add_metric(v.label + ".jobs_rejected", static_cast<double>(report.jobs_rejected));
    r.add_metric(v.label + ".max_queue_depth", static_cast<double>(report.max_queue_depth));
    r.channels[v.label + ".power_mw"] = twin.engine().power_series_mw();
    table.add_row({v.label, AsciiTable::integer(report.jobs_completed),
                   AsciiTable::num(report.makespan_s / units::kSecondsPerHour, 2),
                   AsciiTable::num(report.avg_wait_s, 1),
                   AsciiTable::num(report.total_energy_mwh, 1),
                   AsciiTable::num(report.max_power_mw, 2),
                   AsciiTable::integer(report.jobs_rejected)});
  }
  r.text = "Scheduling policy sweep (" + std::to_string(jobs.size()) + " jobs, same workload)\n" +
           table.render();
  return r;
}

ScenarioResult run_optimize_setpoint_scenario(const ScenarioSpec& spec) {
  check_params(spec, {"power_mw", "wetbulb_c"});
  const SystemConfig config = spec.resolve_config();
  const double power_mw = param_number(spec, "power_mw", 17.0);
  const double wetbulb = param_number(spec, "wetbulb_c", 16.0);
  const SetpointOptimizationResult so =
      optimize_basin_setpoint(config, units::watts_from_mw(power_mw), wetbulb);

  ScenarioResult r;
  r.add_metric("pue_improvement", so.pue_improvement);
  r.add_metric("baseline_pue", so.baseline.pue);
  r.add_metric("best_pue", so.best.pue);
  r.add_metric("best_offset_k", so.best.basin_offset_k);
  r.add_metric("best_feasible", so.best.feasible ? 1.0 : 0.0);
  r.add_metric("annual_savings_usd", so.annual_savings_usd);
  r.add_metric("candidates", static_cast<double>(so.evaluated.size()));
  // Search trace over evaluation index.
  TimeSeries offsets, pues;
  for (std::size_t i = 0; i < so.evaluated.size(); ++i) {
    offsets.push_back(static_cast<double>(i), so.evaluated[i].basin_offset_k);
    pues.push_back(static_cast<double>(i), so.evaluated[i].pue);
  }
  r.channels["candidate_offset_k"] = std::move(offsets);
  r.channels["candidate_pue"] = std::move(pues);
  return r;
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.register_type("simulate", run_simulate_scenario);
  registry.register_type("replay", run_replay_scenario);
  registry.register_type("cooling_validation", run_cooling_validation_scenario);
  registry.register_type("whatif", run_generic_whatif_scenario);
  registry.register_type("whatif_smart_rectifiers", run_smart_rectifier_scenario);
  registry.register_type("whatif_dc380", run_dc380_scenario);
  registry.register_type("whatif_cooling_extension", run_cooling_extension_scenario);
  registry.register_type("day_sweep", run_day_sweep_scenario);
  registry.register_type("policy_sweep", run_policy_sweep_scenario);
  registry.register_type("thermal_scan", run_thermal_scan_scenario);
  registry.register_type("optimize_setpoint", run_optimize_setpoint_scenario);
}

}  // namespace exadigit
