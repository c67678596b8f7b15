/// ooc_replay: a 7-day synthetic Table II dataset streamed off disk through
/// BinChunkSource, under a resident-bytes budget, into the power-only
/// replay_power. One operation is one replay_power call over a freshly
/// opened source (opening reads the manifest and the job list and is not
/// part of the operation). Cooling is off, so a cooling change must leave
/// this workload unchanged.
///
/// The traced run wraps the source in a decorator that times every next()
/// — the telemetry decode — so the replay's own time is the rest.

#include <cstdio>
#include <filesystem>

#include "checks.hpp"
#include "common/units.hpp"
#include "config/system_config.hpp"
#include "core/replay.hpp"
#include "inputs.hpp"
#include "telemetry/chunk.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

constexpr double kDays = 7.0;
constexpr double kChunkSeconds = 6.0 * 3600.0;
constexpr double kResidentBudgetMb = 8.0;
/// 30 to 45 replays in a 30 s run: p60 keeps ten samples beyond it down to
/// 1.2 s per replay.
constexpr double kTailPct = 60.0;

/// Forwards to a source and times each next() as a telemetry.next span.
class TimedChunkSource final : public ChunkedTelemetrySource {
 public:
  TimedChunkSource(ChunkedTelemetrySource& inner, SpanLog* log)
      : ChunkedTelemetrySource(inner.header()), inner_(inner), log_(log) {}

  [[nodiscard]] bool next(TelemetryChunk& out) override {
    ScopedSpan span(log_, "telemetry.next");
    const bool more = inner_.next(out);
    if (more) {
      ++chunks_;
      bytes_ += out.payload_bytes();
    }
    return more;
  }

  [[nodiscard]] std::size_t chunks() const { return chunks_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  ChunkedTelemetrySource& inner_;
  SpanLog* log_;
  std::size_t chunks_ = 0;
  std::size_t bytes_ = 0;
};

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

BinChunkSource open_source(const std::string& dir) {
  BinChunkSource::Options options;
  options.max_resident_mb = kResidentBudgetMb;
  return BinChunkSource(dir, options);
}

}  // namespace

RunResult run_ooc_replay(const RunOptions& options) {
  const SystemConfig config = frontier_system_config();
  const std::string dir = options.work_dir + "/week";
  PowerReplayResult reference;
  std::size_t samples = 0;
  std::size_t jobs = 0;
  std::uint64_t inputs_digest = 0;
  const double setup_s = median_setup_s(options.setup_reps, [&] {
    std::filesystem::remove_all(dir);
    const TelemetryDataset week = make_week_dataset(config, options.seed, kDays);
    save_dataset_binary_chunked(week, dir, kChunkSeconds);
    // The reference: the same dataset replayed from memory as one chunk.
    InMemoryChunkSource whole(dataset_to_frame(week), 0.0);
    reference = replay_power(config, whole, /*with_cooling=*/false);
    samples = TelemetryFrame::from_dataset(week).sample_count();
    jobs = week.jobs.size();
    inputs_digest = digest(week.jobs) ^ digest(week.measured_system_power_w);
  });
  {
    char line[200];
    std::snprintf(line, sizeof line,
                  "inputs: ooc_replay seed %llu, %zu samples, %zu jobs, digest %016llx",
                  static_cast<unsigned long long>(options.seed), samples, jobs,
                  static_cast<unsigned long long>(inputs_digest));
    note(line);
  }
  const double sim_seconds = kDays * units::kSecondsPerDay;

  RunResult result;
  auto within_budget = [](const ChunkedTelemetrySource& source) {
    return mb(source.gauge()->peak_bytes()) <= kResidentBudgetMb;
  };
  std::vector<double> op_ms;
  std::vector<double> op_rss_mb;
  auto untraced_op = [&] {
    BinChunkSource source = open_source(dir);
    // Opening parses the job list; its freed parse tree must not count
    // towards the replay's peak.
    trim_heap();
    const bool rss_ok = reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    const PowerReplayResult replay = replay_power(config, source, /*with_cooling=*/false);
    op_ms.push_back(ms_since(t0));
    if (rss_ok) op_rss_mb.push_back(peak_rss_mb());
    result.count(same_replay(replay, reference) && within_budget(source));
  };

  if (!options.trace) {
    run_for(options.seconds, untraced_op);
    add_replay_metrics(result, setup_s, op_ms, kTailPct, sim_seconds, op_rss_mb);
    return result;
  }

  // Traced run: each iteration runs one untraced replay (the baseline for
  // trace.overhead_pct and the layer sum) and one traced replay, so machine
  // drift hits both alike.
  SpanLog log;
  std::int64_t request = 0;
  std::vector<double> decoded_mb;
  std::vector<double> chunks;
  std::vector<double> peak_resident_mb;
  int jobs_completed = 0;
  run_for(options.seconds, [&] {
    untraced_op();
    BinChunkSource inner = open_source(dir);
    TimedChunkSource timed(inner, &log);
    trim_heap();  // as in the untraced replay
    log.begin_request(request++);
    PowerReplayResult replay;
    {
      ScopedSpan span(&log, "core.replay_power");
      replay = replay_power(config, timed, /*with_cooling=*/false);
    }
    decoded_mb.push_back(mb(timed.bytes()));
    chunks.push_back(static_cast<double>(timed.chunks()));
    peak_resident_mb.push_back(mb(inner.gauge()->peak_bytes()));
    jobs_completed = replay.report.jobs_completed;
    result.count(same_replay(replay, reference) && within_budget(inner));
  });
  const double baseline_ms = median(op_ms);

  const double next_ms = median(values_of(log.per_request_ms("telemetry.next", false)));
  const double self_ms = median(values_of(log.per_request_ms("core.replay_power", true)));
  const double traced_ms = median(values_of(log.per_request_ms("core.replay_power", false)));
  const std::map<std::string, double> layers = {
      {"raps.jobs_completed", static_cast<double>(jobs_completed)},
      {"core.replay_self_ms", self_ms},
      {"telemetry.next_ms", next_ms},
      {"telemetry.chunks", median(chunks)},
      {"telemetry.decoded_mb", median(decoded_mb)},
      {"telemetry.decode_mb_per_s", median(decoded_mb) / (next_ms / 1000.0)},
      {"telemetry.peak_resident_mb", median(peak_resident_mb)},
      {"trace.overhead_pct", 100.0 * (traced_ms / baseline_ms - 1.0)},
  };
  add_layer_metrics(result, layers);
  {
    char line[200];
    std::snprintf(line, sizeof line,
                  "layers: telemetry.next %.2f + replay self %.2f = %.2f ms; untraced op_ms_p50 "
                  "%.2f ms (%zu baseline ops)",
                  next_ms, self_ms, next_ms + self_ms, baseline_ms, op_ms.size());
    note(line);
  }
  export_trace(options, {&log});
  return result;
}

}  // namespace perfbench
