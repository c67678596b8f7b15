#include "workloads.hpp"

#include <cstdio>

namespace perfbench {

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// The per_layer metrics of BENCHMARK.json, with their units.
const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"raps.self_ms", "ms"},
      {"raps.quanta", "count"},
      {"raps.jobs_completed", "count"},
      {"fmi.set_ms", "ms"},
      {"cooling.step_ms", "ms"},
      {"cooling.steps", "count"},
      {"cooling.solves_performed", "count"},
      {"cooling.solves_reused", "count"},
      {"cooling.hx_evaluated", "count"},
      {"cooling.reuse_ratio", "ratio"},
      {"core.series_ms", "ms"},
      {"core.series_samples", "count"},
      {"core.replay_self_ms", "ms"},
      {"telemetry.next_ms", "ms"},
      {"telemetry.chunks", "count"},
      {"telemetry.decoded_mb", "MB"},
      {"telemetry.decode_mb_per_s", "MB/s"},
      {"telemetry.peak_resident_mb", "MB"},
      {"server.cache_hits", "count"},
      {"server.cache_misses", "count"},
      {"server.cache_evictions", "count"},
      {"server.hit_ratio", "ratio"},
      {"server.reply_kb", "KB"},
      {"scenario.run_ms", "ms"},
      {"scenario.wire_ms", "ms"},
      {"json.parse_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

}  // namespace

void add_layer_metrics(RunResult& result, const std::map<std::string, double>& values) {
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const auto it = values.find(def.name);
    result.add(def.name, it != values.end() ? it->second : 0.0, def.unit);
  }
}

std::string describe_tail(const Tail& tail, std::size_t samples) {
  char line[96];
  std::snprintf(line, sizeof line, "op_ms_tail = p%.0f %.4f (%.1f of %zu samples beyond)",
                tail.pct, tail.value, tail.beyond, samples);
  return line;
}

void add_replay_metrics(RunResult& result, double setup_s, const std::vector<double>& op_ms,
                        double tail_pct, double sim_seconds_per_op,
                        const std::vector<double>& op_rss_mb) {
  const double fastest = percentile(op_ms, 0.0);
  result.add("setup_s", setup_s, "s");
  result.add("op_ms_min", fastest, "ms");
  // Every replay executes its scenario, so the fastest miss is the fastest
  // replay.
  result.add("miss_ms_min", fastest, "ms");
  result.add("sim_s_per_wall_s", sim_seconds_per_op / (fastest / 1000.0), "s/s");
  // One caller in a closed loop: the rate at the fastest replay.
  result.add("req_per_s", 1000.0 / fastest, "1/s");
  add_peak_rss(result, op_rss_mb.size() == op_ms.size() ? median(op_rss_mb) : 0.0);
  char line[96];
  std::snprintf(line, sizeof line, "ops: %zu, op_ms_min %.3f, op_ms_p50 %.3f, ", op_ms.size(),
                fastest, median(op_ms));
  note(line + describe_tail(tail_at(op_ms, tail_pct), op_ms.size()));
}

void add_peak_rss(RunResult& result, double peak_rss) {
  if (peak_rss > 0.0) {
    result.add("peak_rss_mb", peak_rss, "MB");
  } else {
    note("peak_rss_mb: unavailable, the VmHWM reset through /proc/self/clear_refs failed");
  }
}

void run_for(double seconds, const std::function<void()>& op) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    op();
  } while (Clock::now() < deadline);
}

void export_trace(const RunOptions& options, const std::vector<const SpanLog*>& logs) {
  // The first three requests in full keep the file small enough to open.
  constexpr std::int64_t kExportedRequests = 3;
  if (options.trace_path.empty()) return;
  if (write_chrome_trace(options.trace_path, logs, kExportedRequests)) {
    note("trace: " + options.trace_path);
  } else {
    note("trace: could not write " + options.trace_path);
  }
}

}  // namespace perfbench
