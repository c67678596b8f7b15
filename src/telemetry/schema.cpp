#include "telemetry/schema.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

namespace {
/// A trace's sample `idx` (a whole number, clamped to [0, 1]) and whether
/// that is its last sample; an empty trace holds `fallback` and always is.
/// The index is compared as a double before the cast, so one far past the
/// end takes the last sample without an out-of-range conversion.
struct TraceSample {
  double value;
  bool last;
};
TraceSample trace_sample(const std::vector<double>& trace, double fallback, double idx) {
  if (trace.empty()) return {std::clamp(fallback, 0.0, 1.0), true};
  const std::size_t last = trace.size() - 1;
  const std::size_t i = idx < static_cast<double>(last) ? static_cast<std::size_t>(idx) : last;
  return {std::clamp(trace[i], 0.0, 1.0), i == last};
}
}  // namespace

JobRecord::Utilization JobRecord::utilization_at(double t_since_start, double quantum_s) const {
  const double idx = trace_sample_index(t_since_start, quantum_s);
  const TraceSample cpu = trace_sample(cpu_util_trace, mean_cpu_util, idx);
  const TraceSample gpu = trace_sample(gpu_util_trace, mean_gpu_util, idx);
  return Utilization{cpu.value, gpu.value, cpu.last && gpu.last};
}

namespace {

constexpr SystemChannelDef kSystemChannels[] = {
    {"measured_power_w", &TelemetryDataset::measured_system_power_w},
    {"wetbulb_c", &TelemetryDataset::wetbulb_c},
};

constexpr CduChannelDef kCduChannels[] = {
    {"rack_power_w", &CduTelemetry::rack_power_w},
    {"htw_flow_gpm", &CduTelemetry::htw_flow_gpm},
    {"ctw_flow_gpm", &CduTelemetry::ctw_flow_gpm},
    {"supply_temp_c", &CduTelemetry::supply_temp_c},
    {"return_temp_c", &CduTelemetry::return_temp_c},
    {"pump_speed", &CduTelemetry::pump_speed},
    {"pump_power_w", &CduTelemetry::pump_power_w},
};

constexpr FacilityChannelDef kFacilityChannels[] = {
    {"htw_supply_temp_c", &FacilityTelemetry::htw_supply_temp_c},
    {"htw_return_temp_c", &FacilityTelemetry::htw_return_temp_c},
    {"htw_supply_pressure_pa", &FacilityTelemetry::htw_supply_pressure_pa},
    {"htw_flow_gpm", &FacilityTelemetry::htw_flow_gpm},
    {"ctw_flow_gpm", &FacilityTelemetry::ctw_flow_gpm},
    {"htwp_power_w", &FacilityTelemetry::htwp_power_w},
    {"ctwp_power_w", &FacilityTelemetry::ctwp_power_w},
    {"fan_power_w", &FacilityTelemetry::fan_power_w},
    {"num_htwp_staged", &FacilityTelemetry::num_htwp_staged},
    {"num_ctwp_staged", &FacilityTelemetry::num_ctwp_staged},
    {"num_ehx_staged", &FacilityTelemetry::num_ehx_staged},
    {"num_ct_cells_staged", &FacilityTelemetry::num_ct_cells_staged},
    {"pue", &FacilityTelemetry::pue},
};

}  // namespace

std::span<const SystemChannelDef> system_channel_defs() { return kSystemChannels; }
std::span<const CduChannelDef> cdu_channel_defs() { return kCduChannels; }
std::span<const FacilityChannelDef> facility_channel_defs() { return kFacilityChannels; }

std::string cdu_tag(std::size_t index) { return "cdu" + std::to_string(index); }

namespace {

/// The one body behind TelemetryDataset::validate and DatasetHeader::validate.
void validate_header(double duration_s, double trace_quantum_s,
                     const std::vector<JobRecord>& jobs) {
  if (duration_s <= 0.0) throw TelemetryError("dataset duration must be positive");
  if (trace_quantum_s <= 0.0) throw TelemetryError("trace quantum must be positive");
  for (const auto& job : jobs) {
    if (job.node_count <= 0) {
      throw TelemetryError("job " + job.name + " has non-positive node count");
    }
    if (job.wall_time_s <= 0.0) {
      throw TelemetryError("job " + job.name + " has non-positive wall time");
    }
    for (double u : job.cpu_util_trace) {
      if (u < 0.0 || u > 1.0 || std::isnan(u)) {
        throw TelemetryError("job " + job.name + " cpu trace out of [0,1]");
      }
    }
    for (double u : job.gpu_util_trace) {
      if (u < 0.0 || u > 1.0 || std::isnan(u)) {
        throw TelemetryError("job " + job.name + " gpu trace out of [0,1]");
      }
    }
  }
}

}  // namespace

void TelemetryDataset::validate() const { validate_header(duration_s, trace_quantum_s, jobs); }

void DatasetHeader::validate() const { validate_header(duration_s, trace_quantum_s, jobs); }

DatasetHeader DatasetHeader::copy_from(const TelemetryDataset& dataset) {
  DatasetHeader header;
  header.system_name = dataset.system_name;
  header.start_time_s = dataset.start_time_s;
  header.duration_s = dataset.duration_s;
  header.trace_quantum_s = dataset.trace_quantum_s;
  header.cdu_count = dataset.cdus.size();
  header.jobs = dataset.jobs;
  return header;
}

}  // namespace exadigit
