#pragma once

/// @file schema.hpp
/// Telemetry schemas (paper Table II).
///
/// These types mirror the validation dataset the paper replays through the
/// twin: job records with 15 s utilization traces, 1 s measured system
/// power, 60 s wet-bulb temperature, and the CDU/CEP sensor channels at
/// their native (mixed) resolutions. The original data is proprietary OLCF
/// telemetry; this library generates an equivalent synthetic dataset with a
/// perturbed "physical twin" (see core/physical_twin.hpp) and replays it
/// through the exact same schema.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/time_series.hpp"

namespace exadigit {

/// The utilization trace sample a job `t_since_start` seconds old holds:
/// floor(t / quantum_s + 1e-9), sample 0 before its start. The slack reads
/// a time that rounds a hair below a boundary as the sample starting there
/// (a job fixed at 15.1 s is 59.999999999999993 s old at 75.1 s: sample 4).
/// Truncation is that floor below 2^52, where every double is whole, so a
/// time far past any trace converts nothing.
[[nodiscard]] inline double trace_sample_index(double t_since_start, double quantum_s) {
  const double position = std::max(0.0, t_since_start) / quantum_s + 1e-9;
  return position < 0x1p52 ? static_cast<double>(static_cast<std::int64_t>(position)) : position;
}

/// One scheduled job (paper Table II "RAPS Inputs").
struct JobRecord {
  std::string name;
  std::int64_t id = 0;
  int node_count = 0;
  double submit_time_s = 0.0;  ///< arrival at the scheduler
  double wall_time_s = 0.0;    ///< requested duration
  /// CPU/GPU utilization traces in [0,1], one sample per trace quantum
  /// (15 s). Empty traces mean constant utilization from the means below.
  std::vector<double> cpu_util_trace;
  std::vector<double> gpu_util_trace;
  double mean_cpu_util = 0.0;  ///< used when traces are empty
  double mean_gpu_util = 0.0;
  /// Telemetry replay: when >= 0 the job starts at exactly this time using
  /// the physical twin's recorded schedule instead of the built-in one.
  double fixed_start_time_s = -1.0;
  /// Partition name for multi-partition machines; empty = default.
  std::string partition;
  /// Submitting user, for fair-share / user-weighted policies; empty =
  /// unknown. Never drawn by the synthetic workload generator (keeps
  /// seeded workloads stable across versions).
  std::string user;
  /// Base priority for the "priority" scheduling policy; higher runs
  /// earlier. 0 for policies that ignore it.
  double priority = 0.0;

  [[nodiscard]] bool is_replay() const { return fixed_start_time_s >= 0.0; }

  /// CPU and GPU utilization at time `t_since_start`: each trace holds
  /// sample trace_sample_index(t_since_start, quantum_s), clamped to [0, 1];
  /// one past the end reads the last, and an empty trace the clamped mean.
  /// `settled` is true once both traces sit on their last sample (an empty
  /// trace always does): the hold keeps that sample for every later time,
  /// so neither value changes again.
  struct Utilization {
    double cpu = 0.0;
    double gpu = 0.0;
    bool settled = false;
  };
  [[nodiscard]] Utilization utilization_at(double t_since_start, double quantum_s) const;
};

/// Per-CDU sensor channels (paper Table II "Outputs (CDU)", 15 s). The
/// rack_power_w channel is the cooling model's input ("rack power:
/// List[float] (15s, 25)").
struct CduTelemetry {
  TimeSeries rack_power_w;      ///< wall power of the CDU's racks
  TimeSeries htw_flow_gpm;      ///< primary-side flow
  TimeSeries ctw_flow_gpm;      ///< secondary-side flow (station 14)
  TimeSeries supply_temp_c;     ///< secondary supply
  TimeSeries return_temp_c;     ///< primary return
  TimeSeries pump_speed;        ///< relative
  TimeSeries pump_power_w;
};

/// Facility / CEP channels (paper Table II "Outputs (CEP)", mixed rates).
struct FacilityTelemetry {
  TimeSeries htw_supply_temp_c;    ///< 1-10 min
  TimeSeries htw_return_temp_c;
  TimeSeries htw_supply_pressure_pa;  ///< 30 s - 10 min
  TimeSeries htw_flow_gpm;            ///< 2 min
  TimeSeries ctw_flow_gpm;
  TimeSeries htwp_power_w;            ///< 10 min
  TimeSeries ctwp_power_w;
  TimeSeries fan_power_w;
  TimeSeries num_htwp_staged;
  TimeSeries num_ctwp_staged;
  TimeSeries num_ehx_staged;
  TimeSeries num_ct_cells_staged;
  TimeSeries pue;                     ///< 15 s interpolated
};

struct TelemetryDataset;

/// Dataset-wide metadata: the manifest fields plus the job list. Jobs are
/// submitted up front by replay, so they ride with the header rather than
/// with any window of channel data. Chunk sources, DatasetFrame and the
/// manifest codec (store.hpp) all carry this one type.
struct DatasetHeader {
  std::string system_name;
  double start_time_s = 0.0;
  double duration_s = 0.0;
  double trace_quantum_s = 15.0;
  std::size_t cdu_count = 0;
  std::vector<JobRecord> jobs;

  [[nodiscard]] double end_time_s() const { return start_time_s + duration_s; }

  /// The same checks as TelemetryDataset::validate(); throws TelemetryError
  /// on violation.
  void validate() const;

  /// The header of a materialized dataset (copies the job list).
  [[nodiscard]] static DatasetHeader copy_from(const TelemetryDataset& dataset);
};

/// A complete validation dataset for a replay window.
struct TelemetryDataset {
  std::string system_name;
  double start_time_s = 0.0;
  double duration_s = 0.0;
  double trace_quantum_s = 15.0;

  std::vector<JobRecord> jobs;
  TimeSeries measured_system_power_w;  ///< 1 s in the paper; 15 s synthetic
  TimeSeries wetbulb_c;                ///< 60 s
  std::vector<CduTelemetry> cdus;
  FacilityTelemetry facility;

  /// Basic cross-field consistency; throws TelemetryError on violation.
  void validate() const;
};

/// Named member tables for the Table II channel structs. Code that visits
/// every channel goes through for_each_channel() below, so the (tag,
/// channel) naming and order cannot drift between formats.
struct SystemChannelDef {
  const char* name;
  TimeSeries TelemetryDataset::* member;
};
struct CduChannelDef {
  const char* name;
  TimeSeries CduTelemetry::* member;
};
struct FacilityChannelDef {
  const char* name;
  TimeSeries FacilityTelemetry::* member;
};

[[nodiscard]] std::span<const SystemChannelDef> system_channel_defs();
[[nodiscard]] std::span<const CduChannelDef> cdu_channel_defs();
[[nodiscard]] std::span<const FacilityChannelDef> facility_channel_defs();

/// Tags used by the native layouts: "system", "facility", and "cdu<i>".
inline constexpr const char* kSystemTag = "system";
inline constexpr const char* kFacilityTag = "facility";
[[nodiscard]] std::string cdu_tag(std::size_t index);

/// Visits every Table II channel of `dataset` as visit(tag, name, series):
/// the system slots, then cdu0..cdu<N-1>, then the facility slots. This is
/// the channel order of every native layout on disk, so it must not change.
/// A non-const dataset passes its series by mutable reference.
template <typename Dataset, typename Visit>
void for_each_channel(Dataset& dataset, Visit&& visit) {
  const std::string system_tag = kSystemTag;
  for (const SystemChannelDef& def : system_channel_defs()) {
    visit(system_tag, def.name, dataset.*(def.member));
  }
  for (std::size_t i = 0; i < dataset.cdus.size(); ++i) {
    const std::string tag = cdu_tag(i);
    for (const CduChannelDef& def : cdu_channel_defs()) {
      visit(tag, def.name, dataset.cdus[i].*(def.member));
    }
  }
  const std::string facility_tag = kFacilityTag;
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    visit(facility_tag, def.name, dataset.facility.*(def.member));
  }
}

}  // namespace exadigit
