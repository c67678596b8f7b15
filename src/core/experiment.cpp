#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

namespace exadigit {

WorkloadConfig draw_day_workload(const WorkloadConfig& base, Rng& rng) {
  WorkloadConfig day = base;
  // Arrival rate is the dominant day-to-day driver (Table IV: t_avg spans
  // 17 s to 2988 s): heavy-tailed multiplier around the base rate.
  day.mean_arrival_s = base.mean_arrival_s * rng.lognormal_mean_std(1.08, 0.9);
  day.mean_arrival_s = std::clamp(day.mean_arrival_s, 15.0, 3000.0);
  // Job-size mix shifts with the science campaigns on the machine.
  day.mean_nodes = std::max(1.0, base.mean_nodes * rng.lognormal_mean_std(1.0, 0.45));
  day.std_nodes = base.std_nodes * (day.mean_nodes / base.mean_nodes);
  day.mean_walltime_s =
      std::max(120.0, base.mean_walltime_s * rng.lognormal_mean_std(1.0, 0.25));
  day.mean_cpu_util =
      std::clamp(base.mean_cpu_util + rng.normal(0.0, 0.05), 0.05, 0.9);
  day.mean_gpu_util =
      std::clamp(base.mean_gpu_util + rng.normal(0.0, 0.08), 0.05, 0.95);
  return day;
}

DaySweepResult run_day_sweep(const SystemConfig& config, const DaySweepConfig& sweep) {
  require(sweep.days > 0, "sweep requires at least one day");

  // Pre-draw all per-day seeds/parameters, so each day's simulation
  // depends only on its own plan, not on the days run before it.
  Rng root(sweep.seed);
  struct DayPlan {
    WorkloadConfig workload;
    std::uint64_t seed = 0;
    bool hpl_day = false;
  };
  std::vector<DayPlan> plans(static_cast<std::size_t>(sweep.days));
  for (int d = 0; d < sweep.days; ++d) {
    Rng day_rng = root.fork("day-" + std::to_string(d));
    DayPlan& plan = plans[static_cast<std::size_t>(d)];
    plan.workload = sweep.vary_days ? draw_day_workload(config.workload, day_rng)
                                    : config.workload;
    plan.seed = day_rng.seed();
    plan.hpl_day = day_rng.bernoulli(sweep.hpl_day_probability);
  }

  DaySweepResult result;
  result.daily.resize(static_cast<std::size_t>(sweep.days));
  for (int d = 0; d < sweep.days; ++d) {
    const DayPlan& plan = plans[static_cast<std::size_t>(d)];
    SystemConfig day_config = config;
    day_config.workload = plan.workload;

    Rng rng(plan.seed);
    WorkloadGenerator gen(plan.workload, day_config, rng.fork("jobs"));
    std::vector<JobRecord> jobs = gen.generate(0.0, units::kSecondsPerDay);
    if (plan.hpl_day) {
      // A benchmark campaign: back-to-back near-full-system HPL runs
      // (paper Fig. 9 replays a day with four 9216-node HPL jobs).
      double t = rng.uniform(2.0, 8.0) * units::kSecondsPerHour;
      const int runs = static_cast<int>(rng.uniform_int(2, 4));
      for (int k = 0; k < runs; ++k) {
        JobRecord hpl = make_hpl_job(t, 35.0 * units::kSecondsPerMinute);
        hpl.id = 900000 + k;
        jobs.push_back(hpl);
        t += 40.0 * units::kSecondsPerMinute;
      }
    }

    DigitalTwinOptions options;
    options.enable_cooling = sweep.with_cooling;
    options.collect_series = sweep.with_cooling;
    DigitalTwin twin(day_config, options);
    if (sweep.with_cooling) {
      WeatherConfig weather;
      SyntheticWeather wx(weather, rng.fork("weather"));
      twin.set_wetbulb_series(
          wx.generate(static_cast<double>(d) * units::kSecondsPerDay, units::kSecondsPerDay));
    }
    twin.submit_all(std::move(jobs));
    twin.run_until(units::kSecondsPerDay);
    result.daily[static_cast<std::size_t>(d)] = twin.report();
  }
  return result;
}

std::vector<SweepRow> DaySweepResult::table_rows() const {
  require(!daily.empty(), "sweep has no daily reports");
  SweepRow arrival{"Avg Arrival Rate, t_avg (s)", {}};
  SweepRow nodes{"Avg Nodes per Job", {}};
  SweepRow runtime{"Avg Runtime (m)", {}};
  SweepRow completed{"Jobs Completed", {}};
  SweepRow throughput{"Throughput (jobs/hr)", {}};
  SweepRow power{"Avg Power (MW)", {}};
  SweepRow loss{"Loss (MW)", {}};
  SweepRow loss_pct{"Loss (%)", {}};
  SweepRow energy{"Total Energy Consumed (MW-hr)", {}};
  SweepRow carbon{"Carbon Emissions (tons CO2)", {}};
  for (const Report& r : daily) {
    arrival.stats.add(r.avg_arrival_s);
    nodes.stats.add(r.avg_nodes_per_job);
    runtime.stats.add(r.avg_runtime_min);
    completed.stats.add(static_cast<double>(r.jobs_completed));
    throughput.stats.add(r.throughput_jobs_per_hour);
    power.stats.add(r.avg_power_mw);
    loss.stats.add(r.avg_loss_mw);
    loss_pct.stats.add(100.0 * r.loss_fraction);
    energy.stats.add(r.total_energy_mwh);
    carbon.stats.add(r.carbon_tons);
  }
  return {arrival, nodes,  runtime, completed, throughput,
          power,   loss,   loss_pct, energy,    carbon};
}

namespace {

/// One daily-report CSV column: its header, the Report member it holds and
/// the decimals it is written with (counts are written with none).
struct ReportColumn {
  const char* name;
  std::variant<int Report::*, double Report::*> member;
  int decimals;
};

const ReportColumn kReportColumns[] = {
    {"duration_s", &Report::duration_s, 1},
    {"jobs_submitted", &Report::jobs_submitted, 0},
    {"jobs_completed", &Report::jobs_completed, 0},
    {"jobs_rejected", &Report::jobs_rejected, 0},
    {"max_queue_depth", &Report::max_queue_depth, 0},
    {"avg_wait_s", &Report::avg_wait_s, 4},
    {"makespan_s", &Report::makespan_s, 4},
    {"throughput", &Report::throughput_jobs_per_hour, 4},
    {"avg_power_mw", &Report::avg_power_mw, 6},
    {"min_power_mw", &Report::min_power_mw, 6},
    {"max_power_mw", &Report::max_power_mw, 6},
    {"energy_mwh", &Report::total_energy_mwh, 6},
    {"avg_loss_mw", &Report::avg_loss_mw, 6},
    {"max_loss_mw", &Report::max_loss_mw, 6},
    {"loss_fraction", &Report::loss_fraction, 8},
    {"avg_eta", &Report::avg_eta_system, 8},
    {"avg_utilization", &Report::avg_utilization, 6},
    {"avg_arrival_s", &Report::avg_arrival_s, 4},
    {"avg_nodes", &Report::avg_nodes_per_job, 4},
    {"avg_runtime_m", &Report::avg_runtime_min, 4},
    {"carbon_tons", &Report::carbon_tons, 4},
    {"cost_usd", &Report::energy_cost_usd, 2},
};

}  // namespace

void save_daily_reports_csv(const std::vector<Report>& daily, const std::string& path) {
  std::vector<std::string> header = {"day"};
  for (const ReportColumn& c : kReportColumns) header.emplace_back(c.name);
  CsvDocument doc(std::move(header));
  for (std::size_t d = 0; d < daily.size(); ++d) {
    std::vector<std::string> row = {AsciiTable::integer(static_cast<long long>(d))};
    for (const ReportColumn& c : kReportColumns) {
      // "%.0f" of an int's exact double spells it as "%lld" does.
      const double value =
          std::visit([&](auto m) { return static_cast<double>(daily[d].*m); }, c.member);
      row.push_back(AsciiTable::num(value, c.decimals));
    }
    doc.add_row(std::move(row));
  }
  doc.save(path);
}

std::vector<Report> load_daily_reports_csv(const std::string& path) {
  const CsvDocument doc = CsvDocument::load(path);
  std::vector<Report> daily;
  for (const ReportColumn& c : kReportColumns) {
    const std::vector<double> values = doc.numeric_column(c.name);
    daily.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::visit(
          [&](auto m) {
            Report& r = daily[i];
            r.*m = static_cast<std::remove_reference_t<decltype(r.*m)>>(values[i]);
          },
          c.member);
    }
  }
  return daily;
}

std::string DaySweepResult::table() const {
  AsciiTable t({"Parameter", "Min", "Avg", "Max", "Std"});
  for (const SweepRow& row : table_rows()) {
    const int decimals = row.stats.max() >= 100.0 ? 0 : 2;
    t.add_row({row.parameter, AsciiTable::num(row.stats.min(), decimals),
               AsciiTable::num(row.stats.mean(), decimals),
               AsciiTable::num(row.stats.max(), decimals),
               AsciiTable::num(row.stats.stddev(), decimals)});
  }
  return t.render();
}

}  // namespace exadigit
