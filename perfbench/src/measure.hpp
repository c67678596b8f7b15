#pragma once

/// @file measure.hpp
/// Timing, order statistics, phase memory, and the result line of one
/// benchmark run.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (pct in [0, 100]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The tail each untraced run prints on its `ops:` line: per workload, the
/// highest percentile of {50, 60, 75, 90, 95, 99} that has at least ten samples
/// beyond it at the workload's usual speed over the benchmark's run length.
/// The percentile is fixed per workload, so a faster program does not change
/// which percentile is reported; `beyond` shows how many samples this run
/// has past it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  double beyond = 0.0;
};
[[nodiscard]] Tail tail_at(const std::vector<double>& samples, double pct);

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// "5" to /proc/self/clear_refs. False when the reset is unavailable.
[[nodiscard]] bool reset_peak_rss();
/// VmHWM in MiB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap to the kernel, so a phase's peak RSS starts from what
/// is live rather than from what set-up allocated and freed.
void trim_heap();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its final line.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Counts one checked operation.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string json_line() const;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the run's files (created and removed by main).
  std::string work_dir;
  /// Chrome trace-event output of a traced run.
  std::string trace_path;
  /// Set-up repetitions whose median is setup_s.
  int setup_reps = 5;
};

/// Runs `setup` `reps` times and returns the median wall time in seconds.
/// The last repetition's state is what the caller keeps.
template <typename Fn>
double median_setup_s(int reps, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(ms_since(t0) / 1000.0);
  }
  return median(std::move(times));
}

/// Prints one human-readable line to stdout (never the last line).
void note(const std::string& line);

}  // namespace perfbench
