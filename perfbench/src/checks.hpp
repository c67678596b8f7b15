#pragma once

/// @file checks.hpp
/// Bit-exact correctness checks applied to every benchmark operation.
///
/// Doubles compare by bit pattern, not by ==, so a -0.0 for 0.0 or a
/// changed NaN payload counts as a difference.

#include <string_view>
#include <vector>

#include "common/time_series.hpp"
#include "core/replay.hpp"
#include "raps/report.hpp"

namespace perfbench {

[[nodiscard]] bool same_bits(double a, double b);
[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b);
[[nodiscard]] bool same_series(const exadigit::TimeSeries& a, const exadigit::TimeSeries& b);
/// Every Report field, bit for bit.
[[nodiscard]] bool same_report(const exadigit::Report& a, const exadigit::Report& b);

/// What the coupled-day check compares: the report plus the PUE and HTWS
/// series.
struct CoupledOutput {
  exadigit::Report report;
  exadigit::TimeSeries pue;
  exadigit::TimeSeries htws;
};
[[nodiscard]] bool same_coupled(const CoupledOutput& a, const CoupledOutput& b);

/// Replay results: the report, the power score, and every series (the
/// simulation wall time is not an output and is ignored).
[[nodiscard]] bool same_replay(const exadigit::PowerReplayResult& a,
                               const exadigit::PowerReplayResult& b);

/// Byte equality of two reply payloads.
[[nodiscard]] bool same_bytes(std::string_view a, std::string_view b);

}  // namespace perfbench
