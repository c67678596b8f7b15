/// Regenerates paper Fig. 7: "Cooling model validation tests. Modelica
/// model predictions (exported as an FMU) vs. telemetry data for the CDU
/// and the CEP" — a ~24-hour replay where the cooling model is driven only
/// by the per-CDU power and the wet-bulb temperature (Section IV-1), scored
/// against the (synthetic) physical twin's telemetry:
///   (a) primary CDU flow rate   (station 12)
///   (b) primary CDU return temp (station 12)
///   (c) HTW supply pressure     (station 10)
///   (d) PUE
///
/// The paper's dataset is 2024-04-07 Frontier telemetry; here the physical
/// twin (perturbed plant + sensor noise) generates the measured channels —
/// see DESIGN.md substitution table.

#include <cstdio>
#include <cstdlib>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/physical_twin.hpp"
#include "core/replay.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

using namespace exadigit;

namespace {
double env_hours(const char* name, double fallback) {
  // Locale-independent (std::atof honours LC_NUMERIC); malformed falls back.
  const char* v = std::getenv(name);
  double value = fallback;
  if (v != nullptr && !try_parse_double(v, &value)) value = fallback;
  return value;
}

void print_series(const char* label, const TimeSeries& pred, const TimeSeries& meas) {
  std::printf("%s\n  predicted %s\n  measured  %s\n", label,
              sparkline(pred.values(), 84).c_str(), sparkline(meas.values(), 84).c_str());
}
}  // namespace

int main() {
  const double hours = env_hours("EXADIGIT_BENCH_HOURS", 24.0);
  const double duration = hours * units::kSecondsPerHour;
  const SystemConfig spec = frontier_system_config();

  std::printf("=== Paper Fig. 7: cooling model validation (%.0f h replay) ===\n\n", hours);

  // Physical twin day: realistic diurnal workload + weather.
  WorkloadGenerator gen(spec.workload, spec, Rng(20240407));
  std::vector<JobRecord> jobs = gen.generate(0.0, duration);
  SyntheticWeather weather(WeatherConfig{}, Rng(7));
  TimeSeries wetbulb_raw = weather.generate(97.0 * units::kSecondsPerDay, duration + 120.0);
  TimeSeries wetbulb;
  for (std::size_t i = 0; i < wetbulb_raw.size(); ++i) {
    wetbulb.push_back(static_cast<double>(i) * 60.0, wetbulb_raw.value(i));
  }
  SyntheticPhysicalTwin physical(spec, PhysicalTwinOptions{});
  const TelemetryDataset dataset = physical.record(jobs, wetbulb, duration);
  std::printf("physical twin recorded %zu jobs, wet bulb %.1f..%.1f C\n\n",
              dataset.jobs.size(), wetbulb.min_value(), wetbulb.max_value());

  if (!cooling_validation_scores(spec, dataset)) {
    std::fprintf(stderr,
                 "the Fig. 7 score needs more than 1 h: its first hour is the plant's "
                 "spin-up from rest (EXADIGIT_BENCH_HOURS = %g)\n",
                 hours);
    return 2;
  }
  const CoolingValidationResult r = validate_cooling(spec, dataset);

  AsciiTable t({"Channel (Fig. 7 panel)", "RMSE", "MAE", "MAPE", "r"});
  t.add_row({"(a) CDU primary flow (gpm)", AsciiTable::num(r.cdu_pri_flow.rmse, 2),
             AsciiTable::num(r.cdu_pri_flow.mae, 2),
             AsciiTable::num(r.cdu_pri_flow.mape_pct, 2) + "%",
             AsciiTable::num(r.cdu_pri_flow.pearson, 3)});
  t.add_row({"(b) CDU primary return temp (C)", AsciiTable::num(r.cdu_return_temp.rmse, 3),
             AsciiTable::num(r.cdu_return_temp.mae, 3),
             AsciiTable::num(r.cdu_return_temp.mape_pct, 2) + "%",
             AsciiTable::num(r.cdu_return_temp.pearson, 3)});
  t.add_row({"(c) HTW supply pressure (kPa)",
             AsciiTable::num(r.htw_supply_pressure.rmse / 1e3, 2),
             AsciiTable::num(r.htw_supply_pressure.mae / 1e3, 2),
             AsciiTable::num(r.htw_supply_pressure.mape_pct, 2) + "%",
             AsciiTable::num(r.htw_supply_pressure.pearson, 3)});
  t.add_row({"(d) PUE", AsciiTable::num(r.pue.rmse, 4), AsciiTable::num(r.pue.mae, 4),
             AsciiTable::num(r.pue.mape_pct, 2) + "%", AsciiTable::num(r.pue.pearson, 3)});
  std::printf("%s\n", t.render().c_str());

  print_series("(a) CDU primary flow (gpm):", r.predicted_flow_gpm, r.measured_flow_gpm);
  print_series("(b) CDU primary return temperature (C):", r.predicted_return_c,
               r.measured_return_c);
  print_series("(c) HTW supply pressure (Pa):", r.predicted_pressure_pa,
               r.measured_pressure_pa);
  print_series("(d) PUE:", r.predicted_pue, r.measured_pue);

  std::printf("\nPUE check (paper Fig. 7d): model within %.2f %% of telemetry "
              "(paper: within 1.4 %%) -> %s\n",
              100.0 * r.pue_max_rel_error,
              r.pue_max_rel_error <= 0.014 ? "PASS" : "FAIL");
  std::printf("mean PUE: predicted %.4f, measured %.4f\n",
              r.predicted_pue.time_weighted_mean(), r.measured_pue.time_weighted_mean());
  return 0;
}
