#pragma once

/// @file experiment.hpp
/// Long-horizon replay sweeps (paper Section IV-3 / Table IV).
///
/// The paper replays 183 days of telemetry, "running the different days in
/// parallel on a single Frontier node" — each day an independent
/// simulation. run_day_sweep keeps the days independent: per-day workload
/// parameters and seeds are drawn up front from meta-distributions (light
/// weekend days, heavy benchmark days, occasional full-system HPL runs),
/// the days then run one after another, and the daily reports aggregate
/// into Table IV's min/avg/max/std rows.
///
/// run_day_sweep is the domain kernel behind the "day_sweep" scenario type
/// in the ScenarioRegistry.

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "config/system_config.hpp"
#include "raps/report.hpp"

namespace exadigit {

/// Sweep configuration.
struct DaySweepConfig {
  int days = 183;
  std::uint64_t seed = 20230906;  ///< paper window starts 2023-09-06
  /// Draw per-day workload parameters (off = identical days).
  bool vary_days = true;
  /// Probability a given day contains a full-system HPL campaign.
  double hpl_day_probability = 0.05;
  /// Run the twin with the cooling model coupled (slower; Table IV's
  /// statistics are power-side only, the paper's 3-minute path).
  bool with_cooling = false;
};

/// Table IV row: min/avg/max/std of one daily statistic.
struct SweepRow {
  std::string parameter;
  SummaryStats stats;
};

/// Aggregated sweep output.
struct DaySweepResult {
  std::vector<Report> daily;
  /// Rows in the paper's Table IV order.
  [[nodiscard]] std::vector<SweepRow> table_rows() const;
  /// Renders the Table IV reproduction.
  [[nodiscard]] std::string table() const;
};

/// Runs the sweep, one day after another.
[[nodiscard]] DaySweepResult run_day_sweep(const SystemConfig& config,
                                           const DaySweepConfig& sweep);

/// Persists daily reports as CSV so experiments can be "saved ... and
/// recalled later" (the paper's Druid-backed dashboard workflow; this
/// library's stand-in is a flat file). One row per day, one column per
/// Report field.
void save_daily_reports_csv(const std::vector<Report>& daily, const std::string& path);
[[nodiscard]] std::vector<Report> load_daily_reports_csv(const std::string& path);

/// Draws one day's workload parameters from the sweep meta-distributions
/// (exposed for tests).
[[nodiscard]] WorkloadConfig draw_day_workload(const WorkloadConfig& base, Rng& rng);

}  // namespace exadigit
