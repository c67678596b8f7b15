#pragma once

/// @file inputs.hpp
/// Seeded input generation. Every workload input is a pure function of the
/// workload seed; the programs under test receive only these inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "config/system_config.hpp"
#include "json/json.hpp"
#include "telemetry/schema.hpp"

namespace perfbench {

/// coupled_day: the Fig. 9 Frontier day. Synthetic jobs at a 70 s mean
/// arrival plus four back-to-back 9216-node HPL runs from 55 % of the day,
/// recorded by the synthetic physical twin under a seeded wet-bulb day.
[[nodiscard]] exadigit::TelemetryDataset make_coupled_day(const exadigit::SystemConfig& config,
                                                          std::uint64_t seed);

/// ooc_replay: a dense synthetic Table II dataset of `days` days (15 s
/// system and CDU channels, 60 s wet bulb, 2 min facility channels) with a
/// generated job mix. Waveform phases and jobs derive from the seed.
[[nodiscard]] exadigit::TelemetryDataset make_week_dataset(const exadigit::SystemConfig& config,
                                                           std::uint64_t seed, double days);

/// server_mix: the horizon of every spec, bench_server_roundtrip's default
/// (EXADIGIT_BENCH_HOURS unset).
inline constexpr double kServerHorizonHours = 0.05;

/// server_mix: the hot set — bench_server_roundtrip's six-spec batch
/// (simulate, whatif_dc380, whatif_smart_rectifiers, twice each), with an
/// explicit seed per spec so every repeat has the same cache identity.
[[nodiscard]] std::vector<exadigit::Json> make_hot_specs(std::uint64_t seed);

/// server_mix: a short `simulate` spec with a fresh seed — a cache miss.
[[nodiscard]] exadigit::Json make_miss_spec(std::uint64_t scenario_seed);

/// A digest of generated inputs, printed so a run shows which inputs it
/// measured (and tests can see that a new seed gives new inputs).
[[nodiscard]] std::uint64_t digest(const std::vector<exadigit::JobRecord>& jobs);
[[nodiscard]] std::uint64_t digest(const exadigit::TimeSeries& series);

}  // namespace perfbench
