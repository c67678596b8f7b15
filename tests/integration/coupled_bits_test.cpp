/// Golden bits of the coupled path: the cooling plant alone and the twin
/// that couples it to RAPS. Each case runs a fixed scenario and compares an
/// FNV-1a 64 digest of every plant and coupled sample, plus the plant
/// counters, against constants recorded with the toolchain named below. On
/// another compiler or C library, where libm's exp, log and pow may round
/// differently, the exact digest is not comparable, so the case compares a
/// small summary set within 1e-9 relative instead.
///
/// A change to how the plant is evaluated must keep these exactly; a
/// deliberate change to the physics or the controls updates them, and the
/// commit says why. On a mismatch each case prints its measured digest and
/// summary in the form the constants below take.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/stable_hash.hpp"
#include "common/units.hpp"
#include "cooling/plant.hpp"
#include "core/digital_twin.hpp"
#include "core/physical_twin.hpp"
#include "raps/workload.hpp"
#include "telemetry/weather.hpp"

namespace exadigit {
namespace {

/// The toolchain the digests were recorded with (__VERSION__ and
/// gnu_get_libc_version()).
constexpr std::string_view kRecordedCompiler = "12.2.0";
constexpr std::string_view kRecordedLibc = "2.36";

/// Mean PUE of the 1 h bench day as the Newton hydraulics computed it, from
/// bench/baselines/BENCH_coupled24h.json before the closed-form loops.
constexpr double kNewtonBenchHourPue = 1.0190295892197856;

bool recorded_toolchain() {
#if defined(__GLIBC__)
  return std::string_view(__VERSION__) == kRecordedCompiler &&
         std::string_view(gnu_get_libc_version()) == kRecordedLibc;
#else
  return false;
#endif
}

struct CoupledBits {
  std::uint64_t digest = kFnv1a64Offset;
  std::vector<double> summary;
};

void fold(CoupledBits& bits, const std::vector<double>& values) {
  bits.digest = fnv1a64(std::string_view(reinterpret_cast<const char*>(values.data()),
                                         values.size() * sizeof(double)),
                        bits.digest);
}

/// Folds the plant's counters into the digest.
void fold_counters(CoupledBits& bits, const CoolingPlantModel& plant) {
  const CoolingPlantModel::HydraulicsStats& h = plant.hydraulics_stats();
  fold(bits, {static_cast<double>(plant.step_count()), static_cast<double>(h.solves_performed),
              static_cast<double>(h.solves_reused()),
              static_cast<double>(plant.thermal_stats().hx_evaluated)});
}

/// Every PlantOutputs field, the staging counts as doubles.
std::vector<double> output_row(const PlantOutputs& o) {
  std::vector<double> row;
  for (const CduOutputs& c : o.cdus) {
    row.insert(row.end(), {c.pump_power_w, c.pump_speed, c.sec_flow_m3s, c.pri_flow_m3s,
                           c.sec_supply_t_c, c.sec_return_t_c, c.sec_supply_p_pa,
                           c.sec_return_p_pa, c.valve_position, c.hex_duty_w, c.pri_return_t_c,
                           c.loop_dp_pa});
  }
  row.insert(row.end(),
             {static_cast<double>(o.htwp_staged), o.htwp_speed, o.htwp_power_w,
              static_cast<double>(o.ehx_staged), o.pri_supply_t_c, o.pri_return_t_c,
              o.pri_flow_m3s, o.pri_dp_pa, static_cast<double>(o.ct_cells_staged),
              static_cast<double>(o.ctwp_staged), o.ctwp_speed, o.ctwp_power_w, o.fan_speed,
              o.fan_power_w, o.ct_supply_t_c, o.ct_return_t_c, o.pue});
  return row;
}

/// Steps a plant through `inputs(step)` for `steps` steps. The digest covers
/// every output of every step and the final counters; the summary is the
/// mean PUE and HTWS over the steps, the final HTWS and PUE, and the sum
/// over steps of the staged tower cells. Every loop must balance its mass
/// at every node to 1e-12 of its flow throughout.
template <typename Inputs>
CoupledBits run_plant(CoolingPlantModel& plant, int steps, double dt, Inputs inputs) {
  CoupledBits bits;
  double pue_sum = 0.0;
  double htws_sum = 0.0;
  double cells_sum = 0.0;
  for (int step = 0; step < steps; ++step) {
    const PlantOutputs& out = plant.step(inputs(step), dt);
    fold(bits, output_row(out));
    pue_sum += out.pue;
    htws_sum += out.pri_supply_t_c;
    cells_sum += out.ct_cells_staged;
  }
  // The worst node mass residual of any loop on any step.
  EXPECT_LE(plant.hydraulics_stats().max_mass_residual_rel, 1e-12);
  fold_counters(bits, plant);
  const PlantOutputs& last = plant.outputs();
  bits.summary = {pue_sum / steps, htws_sum / steps, last.pri_supply_t_c, last.pue, cells_sum};
  return bits;
}

CoolingInputs uniform_load(const SystemConfig& config, double system_mw, double wetbulb_c) {
  CoolingInputs in;
  in.cdu_heat_w.assign(static_cast<std::size_t>(config.cdu_count),
                       units::watts_from_mw(system_mw) * config.cooling.cooling_efficiency /
                           config.cdu_count);
  in.wetbulb_c = wetbulb_c;
  in.system_power_w = units::watts_from_mw(system_mw);
  return in;
}

/// The day bench_coupled_replay24h replays, cut to `hours`: a heavy
/// synthetic mix, four back-to-back HPL runs from 55 % of the window, and
/// seeded January weather, recorded by the synthetic physical twin.
TelemetryDataset bench_day(const SystemConfig& config, double hours) {
  const double duration = hours * units::kSecondsPerHour;
  WorkloadConfig day = config.workload;
  day.mean_arrival_s = 70.0;
  WorkloadGenerator gen(day, config, Rng(20240118));
  std::vector<JobRecord> jobs = gen.generate(0.0, duration);
  for (int k = 0; k < 4; ++k) {
    JobRecord hpl = make_hpl_job(0.55 * duration + k * 2400.0, 2100.0);
    hpl.id = 900000 + k;
    jobs.push_back(hpl);
  }
  SyntheticWeather weather(WeatherConfig{}, Rng(18));
  const TimeSeries raw = weather.generate(17.0 * units::kSecondsPerDay, duration + 120.0);
  TimeSeries wetbulb;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    wetbulb.push_back(static_cast<double>(i) * 60.0, raw.value(i));
  }
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  return physical.record(jobs, wetbulb, duration);
}

/// A coupled replay of the 1 h bench day. The digest covers the times and
/// values of the 155 plant and coupled series and the plant counters; the
/// summary is the report energy, the time-weighted mean PUE and HTWS, and
/// the last PUE and HTWS samples.
CoupledBits run_bench_hour() {
  const SystemConfig config = frontier_system_config();
  const TelemetryDataset day = bench_day(config, 1.0);
  DigitalTwinOptions options;
  options.start_time_s = day.start_time_s;
  DigitalTwin twin(config, options);
  twin.set_wetbulb_series(day.wetbulb_c);
  twin.submit_all(day.jobs);
  twin.run_until(day.start_time_s + day.duration_s);

  std::vector<const TimeSeries*> series = {
      &twin.pue_series(), &twin.htws_temp_series(), &twin.pri_return_temp_series(),
      &twin.htw_supply_pressure_series(), &twin.cooling_efficiency_series()};
  for (const CduSeries& cdu : twin.cdu_series()) {
    series.insert(series.end(), {&cdu.pri_flow_gpm, &cdu.sec_flow_gpm, &cdu.return_temp_c,
                                 &cdu.supply_temp_c, &cdu.pump_power_w});
  }
  for (const TimeSeries& s : twin.cdu_rack_power_series()) series.push_back(&s);
  EXPECT_EQ(series.size(), 155u);

  CoupledBits bits;
  for (const TimeSeries* s : series) {
    fold(bits, s->times());
    fold(bits, s->values());
  }
  fold_counters(bits, twin.cooling());
  EXPECT_LE(twin.cooling().hydraulics_stats().max_mass_residual_rel, 1e-12);
  bits.summary = {twin.report().total_energy_mwh, twin.pue_series().time_weighted_mean(),
                  twin.htws_temp_series().time_weighted_mean(), twin.pue_series().values().back(),
                  twin.htws_temp_series().values().back()};
  return bits;
}

std::string bits_text(const CoupledBits& bits) {
  std::string text = "digest 0x" + stable_hash_hex(bits.digest) + "ULL, summary {";
  for (std::size_t i = 0; i < bits.summary.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%s%.17g", i == 0 ? "" : ", ", bits.summary[i]);
    text += value;
  }
  return text + "}";
}

void expect_bits(const CoupledBits& got, std::uint64_t digest,
                 const std::vector<double>& summary) {
  SCOPED_TRACE("measured " + bits_text(got));
  ASSERT_EQ(got.summary.size(), summary.size());
  if (recorded_toolchain()) {
    EXPECT_EQ(got.digest, digest);
    EXPECT_EQ(got.summary, summary);
    return;
  }
  for (std::size_t i = 0; i < summary.size(); ++i) {
    EXPECT_NEAR(got.summary[i], summary[i], 1e-9 * std::abs(summary[i])) << "summary " << i;
  }
}

TEST(CoupledBitsTest, BenchHourReplay) {
  expect_bits(run_bench_hour(), 0x58de952dfa2d9ca7ULL,
              {10.240243518531575, 1.0190295900533024, 24.94815474713026, 1.0225169099775899,
               25.918820665908083});
}

/// The closed-form hydraulics keep the coupled answer the Newton solver
/// gave, to well within that solver's own 1e-6 tolerance.
TEST(CoupledBitsTest, BenchHourPueMatchesNewtonSolver) {
  const CoupledBits bits = run_bench_hour();
  EXPECT_NEAR(bits.summary[1], kNewtonBenchHourPue, 1e-8 * kNewtonBenchHourPue);
}

/// PlantTest's settle: 5 h at 17 MW and a 16 C wet bulb from a plant at
/// rest, which stages tower cells up as the plant warms.
TEST(CoupledBitsTest, SeventeenMegawattSettle) {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel plant(config);
  plant.reset(20.0);
  const CoolingInputs in = uniform_load(config, 17.0, 16.0);
  const double dt = config.simulation.cooling_quantum_s;
  const int steps = static_cast<int>(5.0 * 3600.0 / dt);
  expect_bits(run_plant(plant, steps, dt, [&](int) -> const CoolingInputs& { return in; }),
              0xa2ac208fc08db88cULL,
              {1.0195893534772444, 27.775972993858037, 25.748749603587726, 1.0203676554656438,
               15386});
}

/// 800 steps of churn: a load swing with per-CDU imbalance, a wet-bulb ramp
/// that stages cells and EHX units, a rack blockage injected then cleared,
/// and a CDU pump forced then returned to its PID.
TEST(CoupledBitsTest, StagingBlockageAndForcedPumpChurn) {
  const SystemConfig config = frontier_system_config();
  CoolingPlantModel plant(config);
  plant.reset(20.0);
  const int n = config.cdu_count;
  CoolingInputs in;
  in.cdu_heat_w.resize(static_cast<std::size_t>(n));
  auto churn = [&](int step) -> const CoolingInputs& {
    const double sys_mw = 17.0 + 9.0 * std::sin(step * 0.01);
    for (int i = 0; i < n; ++i) {
      const double weight = 1.0 + 0.3 * std::sin(0.7 * i + 0.05 * step);
      in.cdu_heat_w[static_cast<std::size_t>(i)] =
          units::watts_from_mw(sys_mw) * config.cooling.cooling_efficiency * weight / n;
    }
    in.wetbulb_c = 12.0 + 10.0 * std::sin(step * 0.004);
    in.system_power_w = units::watts_from_mw(sys_mw);
    if (step == 200) plant.set_rack_blockage(3, 1, 0.35);
    if (step == 520) plant.set_rack_blockage(3, 1, 1.0);
    if (step == 320) plant.force_cdu_pump_speed(7, 0.55);
    if (step == 640) plant.force_cdu_pump_speed(7, -1.0);
    return in;
  };
  expect_bits(run_plant(plant, 800, config.simulation.cooling_quantum_s, churn),
              0x2d81d9b4e9bf3544ULL,
              {1.0324224334673087, 30.16424460547104, 28.944194592374984, 1.0138011046603634,
               8482});
}

}  // namespace
}  // namespace exadigit
