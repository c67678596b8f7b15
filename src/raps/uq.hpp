#pragma once

/// @file uq.hpp
/// Monte-Carlo uncertainty quantification for RAPS (paper Section IV:
/// "we ... have implemented UQ into our RAPS module").
///
/// The dominant power-model uncertainties are the converter efficiency
/// curves (vendor data, +/- a fraction of a percent) and the
/// power<->utilization interpolation (Section III-B footnote 1). The UQ
/// driver replays one job list under N perturbed configurations drawn from
/// those uncertainty bands, one replica after another, and reports the
/// spread of the headline outputs.

#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "config/system_config.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

/// Uncertainty bands for the perturbed replicas.
struct UqConfig {
  int samples = 32;
  /// Multiplicative 1-sigma on both efficiency curves (vendor tolerance).
  double efficiency_sigma = 0.004;
  /// 1-sigma on per-job mean utilizations (interpolation error).
  double utilization_sigma = 0.03;
  /// 1-sigma on the idle power constants (RAM/NIC/NVMe book values).
  double idle_power_sigma = 0.02;
};

/// Distribution summary of one scalar output across replicas.
struct UqResult {
  SummaryStats avg_power_mw;
  SummaryStats total_energy_mwh;
  SummaryStats loss_mw;
  SummaryStats carbon_tons;
  std::vector<double> avg_power_samples_mw;  ///< for percentile queries
};

/// Runs the Monte-Carlo study: each replica simulates `jobs` over
/// `duration_s` under a perturbed copy of `config`.
[[nodiscard]] UqResult run_power_uq(const SystemConfig& config,
                                    const std::vector<JobRecord>& jobs, double duration_s,
                                    const UqConfig& uq, Rng rng);

/// Returns `config` with efficiency curves, utilizations, and idle power
/// constants perturbed by one UQ draw (exposed for testing).
[[nodiscard]] SystemConfig perturb_config(const SystemConfig& config, const UqConfig& uq,
                                          Rng& rng);

}  // namespace exadigit
