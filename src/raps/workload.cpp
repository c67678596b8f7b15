#include "raps/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config, const SystemConfig& system,
                                     Rng rng)
    : config_(config),
      max_nodes_(system.total_nodes()),
      trace_quantum_s_(system.simulation.trace_quantum_s),
      rng_(rng) {
  require(config_.mean_arrival_s > 0.0, "mean arrival time must be positive");
  require(std::isfinite(trace_quantum_s_) && trace_quantum_s_ > 0.0,
          "trace quantum must be finite and positive");
}

JobRecord WorkloadGenerator::draw_job(double submit_time_s) {
  JobRecord j;
  j.id = next_id_++;
  j.name = "synthetic-" + std::to_string(j.id);
  j.submit_time_s = submit_time_s;
  // Node counts are heavy-tailed (Table IV: mean 268, std 626): lognormal,
  // clamped to the machine, with a floor of one node.
  const double nodes = rng_.lognormal_mean_std(config_.mean_nodes, config_.std_nodes);
  j.node_count = std::clamp(static_cast<int>(std::lround(nodes)), 1, max_nodes_);
  // Wall times likewise (Table IV: mean 39 min).
  j.wall_time_s = std::max(60.0, rng_.lognormal_mean_std(config_.mean_walltime_s,
                                                         config_.std_walltime_s));
  j.mean_cpu_util =
      rng_.truncated_normal(config_.mean_cpu_util, config_.std_cpu_util, 0.0, 1.0);
  j.mean_gpu_util =
      rng_.truncated_normal(config_.mean_gpu_util, config_.std_gpu_util, 0.0, 1.0);
  // Short utilization trace with phase structure: ramp-in, steady, tail.
  const std::size_t samples = std::min<std::size_t>(
      64, std::max<std::size_t>(4, static_cast<std::size_t>(j.wall_time_s /
                                                            trace_quantum_s_ / 4)));
  j.cpu_util_trace.resize(samples);
  j.gpu_util_trace.resize(samples);
  for (std::size_t k = 0; k < samples; ++k) {
    const double phase = static_cast<double>(k) / static_cast<double>(samples);
    const double envelope = phase < 0.1 ? phase / 0.1 : (phase > 0.9 ? (1.0 - phase) / 0.1 : 1.0);
    const double jitter_c = rng_.normal(0.0, 0.05);
    const double jitter_g = rng_.normal(0.0, 0.05);
    j.cpu_util_trace[k] = std::clamp(j.mean_cpu_util * (0.7 + 0.3 * envelope) + jitter_c, 0.0, 1.0);
    j.gpu_util_trace[k] = std::clamp(j.mean_gpu_util * (0.65 + 0.35 * envelope) + jitter_g, 0.0, 1.0);
  }
  return j;
}

std::vector<JobRecord> WorkloadGenerator::generate(double t0_s, double duration_s) {
  require(duration_s > 0.0, "workload duration must be positive");
  std::vector<JobRecord> jobs;
  double t = t0_s;
  while (true) {
    // Paper Eq. (5): exponential inter-arrival with lambda = 1/t_avg.
    t += rng_.exponential(config_.mean_arrival_s);
    if (t >= t0_s + duration_s) break;
    jobs.push_back(draw_job(t));
  }
  return jobs;
}

JobRecord make_hpl_job(double submit_time_s, double wall_time_s, int node_count) {
  JobRecord j = make_constant_job(submit_time_s, wall_time_s, node_count, 0.33, 0.79);
  j.name = "hpl";
  return j;
}

JobRecord make_openmxp_job(double submit_time_s, double wall_time_s, int node_count) {
  JobRecord j = make_constant_job(submit_time_s, wall_time_s, node_count, 0.28, 0.92);
  j.name = "openmxp";
  return j;
}

JobRecord make_constant_job(double submit_time_s, double wall_time_s, int node_count,
                            double cpu_util, double gpu_util) {
  require(node_count > 0, "job node count must be positive");
  require(wall_time_s > 0.0, "job wall time must be positive");
  JobRecord j;
  j.name = "constant";
  j.id = 0;
  j.node_count = node_count;
  j.submit_time_s = submit_time_s;
  j.wall_time_s = wall_time_s;
  j.mean_cpu_util = std::clamp(cpu_util, 0.0, 1.0);
  j.mean_gpu_util = std::clamp(gpu_util, 0.0, 1.0);
  return j;
}

}  // namespace exadigit
