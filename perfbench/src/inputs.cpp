#include "inputs.hpp"

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "common/stable_hash.hpp"
#include "common/units.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

namespace perfbench {

using namespace exadigit;

namespace {

/// Independent streams of one workload seed.
Rng stream(std::uint64_t seed, const char* label) { return Rng(seed).fork(label); }

}  // namespace

TelemetryDataset make_coupled_day(const SystemConfig& config, std::uint64_t seed) {
  const double duration = units::kSecondsPerDay;
  WorkloadConfig day = config.workload;
  day.mean_arrival_s = 70.0;
  WorkloadGenerator gen(day, config, stream(seed, "jobs"));
  std::vector<JobRecord> jobs = gen.generate(0.0, duration);
  const double hpl_start = 0.55 * duration;
  for (int k = 0; k < 4; ++k) {
    JobRecord hpl = make_hpl_job(hpl_start + k * 2400.0, 2100.0);
    hpl.id = 900000 + k;
    jobs.push_back(hpl);
  }

  // January 18 (the Fig. 9 day) with seeded weather noise, re-timed to
  // start at 0. The date stays fixed so every seed sees the same season.
  SyntheticWeather weather(WeatherConfig{}, stream(seed, "weather"));
  const TimeSeries raw = weather.generate(17.0 * units::kSecondsPerDay, duration + 120.0);
  TimeSeries wetbulb;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    wetbulb.push_back(static_cast<double>(i) * 60.0, raw.value(i));
  }

  PhysicalTwinOptions physical_options;
  physical_options.seed = stream(seed, "physical").engine()();
  SyntheticPhysicalTwin physical(config, physical_options);
  return physical.record(jobs, wetbulb, duration);
}

TelemetryDataset make_week_dataset(const SystemConfig& config, std::uint64_t seed,
                                   double days) {
  TelemetryDataset d;
  d.system_name = "perfbench-week";
  d.duration_s = days * units::kSecondsPerDay;
  d.trace_quantum_s = 15.0;
  Rng phases = stream(seed, "phases");
  auto fill = [&phases, &d](TimeSeries& s, double dt, double base, double amplitude) {
    const double phase = phases.uniform(0.0, 6.283185307179586);
    const auto n = static_cast<std::size_t>(d.duration_s / dt);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) * dt;
      s.push_back(t, base + amplitude * std::sin(1e-4 * t + phase));
    }
  };
  fill(d.measured_system_power_w, 15.0, 18e6, 4e6);
  fill(d.wetbulb_c, 60.0, 16.0, 4.0);
  d.cdus.resize(static_cast<std::size_t>(config.cdu_count));
  for (CduTelemetry& cdu : d.cdus) {
    for (const CduChannelDef& def : cdu_channel_defs()) {
      fill(cdu.*(def.member), 15.0, 100.0, 40.0);
    }
  }
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    fill(d.facility.*(def.member), 120.0, 50.0, 10.0);
  }
  WorkloadGenerator gen(config.workload, config, stream(seed, "jobs"));
  d.jobs = gen.generate(0.0, d.duration_s);
  return d;
}

std::vector<Json> make_hot_specs(std::uint64_t seed) {
  // The types, names and horizon of bench_server_roundtrip's make_batch, so
  // every seed serves the same kinds of reply; the seed picks each spec's
  // workload seed.
  static constexpr const char* kTypes[] = {"simulate", "whatif_dc380", "whatif_smart_rectifiers"};
  Rng rng = stream(seed, "hot");
  std::vector<Json> specs;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::string type = kTypes[i % std::size(kTypes)];
    Json spec;
    spec["type"] = type;
    spec["name"] = type + "-" + std::to_string(i);
    spec["horizon_hours"] = kServerHorizonHours;
    // Hot and miss seeds come from disjoint halves of the seed space.
    spec["seed"] = static_cast<std::int64_t>(rng.uniform_int(1, (std::int64_t{1} << 30) - 1));
    specs.push_back(std::move(spec));
  }
  return specs;
}

Json make_miss_spec(std::uint64_t scenario_seed) {
  Json spec;
  spec["type"] = "simulate";
  spec["name"] = "miss";
  spec["horizon_hours"] = kServerHorizonHours;
  spec["seed"] = static_cast<std::int64_t>((std::uint64_t{1} << 30) | (scenario_seed >> 24));
  return spec;
}

std::uint64_t digest(const std::vector<JobRecord>& jobs) {
  std::uint64_t h = kFnv1a64Offset;
  for (const JobRecord& job : jobs) {
    h = stable_hash_combine(h, static_cast<std::uint64_t>(job.id));
    h = stable_hash_combine(h, static_cast<std::uint64_t>(job.node_count));
    h = stable_hash_combine(h, std::bit_cast<std::uint64_t>(job.submit_time_s));
    h = stable_hash_combine(h, std::bit_cast<std::uint64_t>(job.wall_time_s));
    h = stable_hash_combine(h, std::bit_cast<std::uint64_t>(job.fixed_start_time_s));
  }
  return h;
}

std::uint64_t digest(const TimeSeries& series) {
  std::uint64_t h = kFnv1a64Offset;
  for (std::size_t i = 0; i < series.size(); ++i) {
    h = stable_hash_combine(h, std::bit_cast<std::uint64_t>(series.times()[i]));
    h = stable_hash_combine(h, std::bit_cast<std::uint64_t>(series.values()[i]));
  }
  return h;
}

}  // namespace perfbench
