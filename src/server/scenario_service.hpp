#pragma once

/// @file scenario_service.hpp
/// The warm, transport-agnostic core of the scenario server.
///
/// ScenarioService owns everything that makes a long-lived twin process
/// faster than a fresh CLI run: an executor pool of worker threads that
/// run registry workflows, a content-addressed LRU of finished results
/// (result_cache.hpp), resident telemetry datasets keyed (path, resolved
/// format, mtime), a memo of resolved-config hashes, and per-scenario-type
/// latency histograms.
///
/// The one seam it installs is the process-wide dataset loader
/// (set_scenario_dataset_loader, scenario_spec.hpp), for its lifetime: every
/// dataset a scenario resolves goes through load_source_dataset once and
/// then stays resident, whatever its format, and every scenario that
/// resolves it shares that one copy. A format-less source resolves to its
/// manifest's format, so it shares the copy of a source naming that format.
/// A replay of an exadigit-bin dataset never asks the loader; it streams
/// off disk and decodes only the channels it reads. It speaks parsed JSON
/// request/response envelopes — no sockets — so the protocol surface is
/// testable without a network and the poll(2) loop in server.hpp stays
/// purely transport.
///
/// Threading contract: handle_payload/handle_request, drain_completions,
/// and forget_client are called from one dispatch thread (the poll loop);
/// workers run factories and push completions; stats_json is safe from
/// anywhere. The wakeup hook is invoked from worker threads whenever new
/// completions are queued.
///
/// ## Request envelopes (one JSON object per frame)
///
///   {"type": "ping"}                        -> {"type": "pong"}
///   {"type": "stats"}                       -> {"type": "stats", ...}
///   {"type": "shutdown"}                    -> {"type": "shutting_down"}
///   {"type": "run", "id": "r1",
///    "batch": <ScenarioBatch JSON>}         -> see below
///
/// A run request answers immediately with
///   {"type": "accepted", "id": "r1", "scenarios": N}
/// followed (synchronously for cache hits, streamed as workers finish
/// otherwise) by per-scenario envelopes in completion order:
///   {"type": "status", "id": "r1", "index": i, "name": ..., "status": "running"}
///   {"type": "result", "id": "r1", "index": i, "name": ..., "cached": bool,
///    "elapsed_ms": t, "result": <ScenarioResult wire JSON>}
/// and finally
///   {"type": "batch_done", "id": "r1", "scenarios": N, "done": d,
///    "failed": f, "cached": c}
///
/// Malformed payloads (bad JSON, unknown type, invalid batch) produce
///   {"type": "error", "message": ...}
/// and never take the service down — the connection stays usable.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "scenario/scenario_key.hpp"
#include "scenario/scenario_spec.hpp"
#include "server/result_cache.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

class ScenarioService {
 public:
  struct Options {
    /// Executor width; 0 = hardware concurrency.
    int jobs = 0;
    /// Result-cache capacity in entries (0 disables result caching).
    std::size_t cache_entries = 256;
    /// Resident-dataset byte budget in MiB (sample payload accounting, the
    /// same dataset_payload_bytes() measure the chunk gauges use). The
    /// service installs the process-wide dataset loader for its lifetime,
    /// and its LRU evicts by resident bytes, not entry count, because
    /// datasets vary by orders of magnitude: it evicts from the cold end
    /// while over budget, always keeping the most recently used dataset.
    /// 0 = unlimited.
    double dataset_resident_mb = 512.0;
  };

  /// One queued outbound envelope for a specific client connection.
  struct Completion {
    std::uint64_t client = 0;
    Json envelope;
  };

  ScenarioService();  ///< default Options
  explicit ScenarioService(Options options);
  ~ScenarioService();

  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  /// Called (from worker threads) whenever drain_completions has new work.
  /// The server points this at its self-pipe.
  void set_wakeup(std::function<void()> wakeup);

  /// Decodes and dispatches one raw payload from `client`. Returns the
  /// synchronous reply envelopes; asynchronous ones surface later through
  /// drain_completions. Never throws on malformed input.
  [[nodiscard]] std::vector<Json> handle_payload(std::uint64_t client,
                                                 std::string_view payload);

  /// Same, for an already-parsed request document.
  [[nodiscard]] std::vector<Json> handle_request(std::uint64_t client,
                                                 const Json& request);

  /// {"type": "error", "message": ...} — also used by the server for
  /// transport-level failures (oversized frame, bad magic).
  [[nodiscard]] static Json error_envelope(const std::string& message);

  /// Completed async envelopes, in completion order. Thread-safe, non-blocking.
  [[nodiscard]] std::vector<Completion> drain_completions();

  /// Drops queued completions for a disconnected client. Its in-flight
  /// scenarios still run to completion (results still warm the cache);
  /// later completions for the client are queued and discarded by the
  /// server's send path. Other clients are unaffected.
  void forget_client(std::uint64_t client);

  /// True once a {"type": "shutdown"} request was handled.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Scenarios accepted but not yet completed.
  [[nodiscard]] std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Blocks until every in-flight scenario has completed (graceful drain).
  void drain();

  /// The {"type": "stats"} reply: uptime, counters, cache and dataset
  /// residency, per-type latency histograms.
  [[nodiscard]] Json stats_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    std::uint64_t client = 0;
    std::uint64_t batch = 0;  ///< internal batch token
    std::string request_id;
    std::size_t index = 0;
    ScenarioSpec spec;  ///< effective: seed resolved
    ScenarioKey key;
    bool cacheable = false;  ///< key computation succeeded
  };

  struct BatchState {
    std::uint64_t client = 0;
    std::string request_id;
    std::size_t scenarios = 0;
    std::size_t remaining = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cached = 0;
  };

  /// Recent-sample ring + log-scale buckets for one scenario type.
  struct LatencyTrack {
    std::uint64_t count = 0;
    double max_ms = 0.0;
    std::vector<std::uint64_t> bucket_counts;  ///< parallel to kLatencyBucketsMs
    std::vector<double> recent_ms;             ///< bounded ring for percentiles
    std::size_t next_slot = 0;
  };

  struct DatasetKey {
    std::string path;
    std::string format;  ///< the source's, or its manifest's when empty
    std::int64_t mtime_ticks = 0;
    [[nodiscard]] auto operator<=>(const DatasetKey&) const = default;
  };

  struct ConfigMemoKey {
    std::string path;
    std::int64_t mtime_ticks = 0;
    std::uint64_t delta_hash = 0;
    [[nodiscard]] auto operator<=>(const ConfigMemoKey&) const = default;
  };

  std::vector<Json> handle_run(std::uint64_t client, const Json& request);
  /// Cache key for an effective spec, via the config-hash memo and with the
  /// dataset mtime folded in. Returns false when resolution fails (missing
  /// config file): the job still runs — and fails with a real error — but
  /// is never cached.
  bool compute_key(const ScenarioSpec& spec, ScenarioKey* key);
  void worker_loop();
  void push_completion(std::uint64_t client, Json envelope);
  /// Batch bookkeeping shared by cache hits and executed jobs; queues the
  /// batch_done envelope when the batch's last scenario lands. Must be
  /// called with state_mutex_ held; any batch_done is appended to `out`.
  void account_scenario(std::uint64_t batch, bool failed, bool cached,
                        std::vector<Json>* out);
  void record_latency(const std::string& type, double elapsed_ms);
  /// The installed dataset loader: load_source_dataset behind the
  /// resident LRU. Every caller shares the resident copy.
  std::shared_ptr<const TelemetryDataset> load_resident_dataset(const ScenarioSource& source);
  [[nodiscard]] static Json batch_done_envelope(const BatchState& state);

  Options options_;
  Clock::time_point started_ = Clock::now();
  ResultCache cache_;

  std::function<void()> wakeup_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::size_t> in_flight_{0};

  // Executor pool.
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stop_ = false;

  // Batches, completions, counters, latency (one mutex: all touches are
  // short map/queue operations).
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::map<std::uint64_t, BatchState> batches_;
  std::uint64_t next_batch_token_ = 1;
  std::vector<Completion> completions_;
  std::uint64_t requests_total_ = 0;
  std::uint64_t batches_total_ = 0;
  std::uint64_t scenarios_submitted_ = 0;
  std::uint64_t scenarios_executed_ = 0;
  std::uint64_t scenarios_failed_ = 0;
  std::uint64_t errors_total_ = 0;
  std::map<std::string, LatencyTrack> latency_;
  std::map<ConfigMemoKey, std::uint64_t> config_hash_memo_;

  /// One resident dataset plus its payload-byte size, sampled once at load
  /// (datasets are immutable while resident, so the size never goes stale).
  struct ResidentDataset {
    DatasetKey key;
    std::shared_ptr<const TelemetryDataset> dataset;
    std::size_t bytes = 0;
  };

  // Resident datasets (separate mutex: loads are slow and must not block
  // the dispatch thread's bookkeeping).
  mutable std::mutex dataset_mutex_;
  std::list<ResidentDataset> dataset_order_;  ///< front = most recently used
  std::map<DatasetKey, std::list<ResidentDataset>::iterator> dataset_index_;
  std::size_t dataset_resident_bytes_ = 0;  ///< sum of resident entry bytes
  std::uint64_t dataset_loads_ = 0;
  std::uint64_t dataset_hits_ = 0;
};

}  // namespace exadigit
