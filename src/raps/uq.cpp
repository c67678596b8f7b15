#include "raps/uq.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "raps/engine.hpp"

namespace exadigit {

SystemConfig perturb_config(const SystemConfig& config, const UqConfig& uq, Rng& rng) {
  SystemConfig c = config;
  const double f_rect = 1.0 + rng.normal(0.0, uq.efficiency_sigma);
  const double f_sivoc = 1.0 + rng.normal(0.0, uq.efficiency_sigma);
  c.power.rectifier_efficiency = c.power.rectifier_efficiency.scaled_y(f_rect, 0.01, 1.0);
  c.power.sivoc_efficiency = c.power.sivoc_efficiency.scaled_y(f_sivoc, 0.01, 1.0);
  const double f_idle = 1.0 + rng.normal(0.0, uq.idle_power_sigma);
  c.node.ram_avg_w *= f_idle;
  c.node.nic_w *= f_idle;
  c.node.nvme_w *= f_idle;
  c.validate();
  return c;
}

UqResult run_power_uq(const SystemConfig& config, const std::vector<JobRecord>& jobs,
                      double duration_s, const UqConfig& uq, Rng rng) {
  require(uq.samples > 0, "UQ requires at least one sample");
  require(duration_s > 0.0, "UQ duration must be positive");

  // Pre-draw per-replica seeds, so each replica depends only on its own
  // seed, not on the replicas run before it.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(uq.samples));
  for (auto& s : seeds) s = static_cast<std::uint64_t>(rng.uniform_int(1, 1LL << 62));

  std::vector<Report> reports(static_cast<std::size_t>(uq.samples));
  for (int i = 0; i < uq.samples; ++i) {
    Rng replica_rng(seeds[static_cast<std::size_t>(i)]);
    SystemConfig replica_config = perturb_config(config, uq, replica_rng);
    RapsEngine::Options options;
    options.collect_series = false;
    RapsEngine engine(replica_config, options);
    for (JobRecord job : jobs) {
      job.mean_cpu_util = std::clamp(
          job.mean_cpu_util + replica_rng.normal(0.0, uq.utilization_sigma), 0.0, 1.0);
      job.mean_gpu_util = std::clamp(
          job.mean_gpu_util + replica_rng.normal(0.0, uq.utilization_sigma), 0.0, 1.0);
      // Trace perturbation: shift the whole trace by the same draw.
      for (double& u : job.cpu_util_trace) {
        u = std::clamp(u + replica_rng.normal(0.0, uq.utilization_sigma * 0.5), 0.0, 1.0);
      }
      for (double& u : job.gpu_util_trace) {
        u = std::clamp(u + replica_rng.normal(0.0, uq.utilization_sigma * 0.5), 0.0, 1.0);
      }
      engine.submit(std::move(job));
    }
    engine.run_until(duration_s);
    reports[static_cast<std::size_t>(i)] = engine.report();
  }

  UqResult result;
  for (const auto& r : reports) {
    result.avg_power_mw.add(r.avg_power_mw);
    result.total_energy_mwh.add(r.total_energy_mwh);
    result.loss_mw.add(r.avg_loss_mw);
    result.carbon_tons.add(r.carbon_tons);
    result.avg_power_samples_mw.push_back(r.avg_power_mw);
  }
  return result;
}

}  // namespace exadigit
