#pragma once

/// @file workloads.hpp
/// The three benchmark workloads. Each sets up its seeded inputs (several
/// times, for a steady setup_s), measures back-to-back operations for the
/// requested seconds, checks every operation's output, and returns the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] RunResult run_coupled_day(const RunOptions& options);
[[nodiscard]] RunResult run_ooc_replay(const RunOptions& options);
[[nodiscard]] RunResult run_server_mix(const RunOptions& options);

/// Fills every per-layer metric, in report order, from `values`. A traced
/// run reports all of them; a layer the workload does not exercise reads 0.
void add_layer_metrics(RunResult& result, const std::map<std::string, double>& values);

/// Adds the end-to-end metrics shared by the replay workloads. The times come
/// from the fastest replay: co-tenant load on a shared host only ever adds
/// time, and it comes and goes over seconds, so the median of a run moves
/// with the load and the minimum does not. The median and the `tail_pct`
/// tail are printed on the `ops:` line. `op_rss_mb` holds each operation's
/// peak RSS (empty when VmHWM cannot be reset).
void add_replay_metrics(RunResult& result, double setup_s, const std::vector<double>& op_ms,
                        double tail_pct, double sim_seconds_per_op,
                        const std::vector<double>& op_rss_mb);

/// Adds peak_rss_mb, or leaves it out (and says so) when the phase's peak
/// could not be isolated (`peak_rss` <= 0).
void add_peak_rss(RunResult& result, double peak_rss);

/// "op_ms_tail = p90 140.2 (24.6 of 246 samples beyond)"
[[nodiscard]] std::string describe_tail(const Tail& tail, std::size_t samples);

/// Runs `op` back to back until `seconds` have passed (at least once).
void run_for(double seconds, const std::function<void()>& op);

/// Writes the traced run's spans (the first few requests in full) and
/// reports where they went.
void export_trace(const RunOptions& options, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
