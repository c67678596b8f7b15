#include "checks.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace perfbench {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_series(const exadigit::TimeSeries& a, const exadigit::TimeSeries& b) {
  return same_bits(a.times(), b.times()) && same_bits(a.values(), b.values());
}

bool same_report(const exadigit::Report& a, const exadigit::Report& b) {
  const double da[] = {a.duration_s,       a.avg_wait_s,      a.makespan_s,
                       a.throughput_jobs_per_hour,            a.avg_power_mw,
                       a.min_power_mw,     a.max_power_mw,    a.total_energy_mwh,
                       a.avg_loss_mw,      a.max_loss_mw,     a.loss_fraction,
                       a.avg_eta_system,   a.avg_utilization, a.avg_arrival_s,
                       a.avg_nodes_per_job, a.avg_runtime_min, a.carbon_tons,
                       a.energy_cost_usd};
  const double db[] = {b.duration_s,       b.avg_wait_s,      b.makespan_s,
                       b.throughput_jobs_per_hour,            b.avg_power_mw,
                       b.min_power_mw,     b.max_power_mw,    b.total_energy_mwh,
                       b.avg_loss_mw,      b.max_loss_mw,     b.loss_fraction,
                       b.avg_eta_system,   b.avg_utilization, b.avg_arrival_s,
                       b.avg_nodes_per_job, b.avg_runtime_min, b.carbon_tons,
                       b.energy_cost_usd};
  for (std::size_t i = 0; i < std::size(da); ++i) {
    if (!same_bits(da[i], db[i])) return false;
  }
  return a.jobs_submitted == b.jobs_submitted && a.jobs_completed == b.jobs_completed &&
         a.jobs_rejected == b.jobs_rejected && a.max_queue_depth == b.max_queue_depth;
}

bool same_coupled(const CoupledOutput& a, const CoupledOutput& b) {
  return same_report(a.report, b.report) && same_series(a.pue, b.pue) &&
         same_series(a.htws, b.htws);
}

bool same_replay(const exadigit::PowerReplayResult& a, const exadigit::PowerReplayResult& b) {
  return same_series(a.predicted_power_mw, b.predicted_power_mw) &&
         same_series(a.measured_power_mw, b.measured_power_mw) &&
         same_series(a.eta_system, b.eta_system) && same_series(a.cooling_eff, b.cooling_eff) &&
         same_series(a.utilization, b.utilization) && same_series(a.pue, b.pue) &&
         same_bits(a.power_score.rmse, b.power_score.rmse) &&
         same_bits(a.power_score.mae, b.power_score.mae) &&
         same_bits(a.power_score.mape_pct, b.power_score.mape_pct) &&
         same_bits(a.power_score.pearson, b.power_score.pearson) &&
         same_report(a.report, b.report);
}

bool same_bytes(std::string_view a, std::string_view b) { return a == b; }

}  // namespace perfbench
