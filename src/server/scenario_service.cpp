#include "server/scenario_service.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/stable_hash.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/scenario_result.hpp"
#include "scenario/scenario_runner.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/store.hpp"

namespace exadigit {

namespace {

/// Log-scale latency bucket upper bounds; the last implicit bucket is +inf.
constexpr double kLatencyBucketsMs[] = {1.0,   2.0,   5.0,    10.0,   20.0,
                                        50.0,  100.0, 200.0,  500.0,  1000.0,
                                        2000.0, 5000.0, 10000.0};
constexpr std::size_t kLatencyBucketCount =
    sizeof(kLatencyBucketsMs) / sizeof(kLatencyBucketsMs[0]) + 1;
/// Percentiles come from a bounded ring of the most recent samples.
constexpr std::size_t kLatencyRingCapacity = 512;
/// Ceiling on the resolved-config-hash memo: every distinct (path, mtime,
/// delta) adds an entry, so a long-lived server touching many configs (or a
/// config rewritten in place, bumping mtime) would otherwise grow without
/// bound. Entries are cheap to recompute, so a wholesale clear beats LRU
/// bookkeeping here.
constexpr std::size_t kConfigMemoMaxEntries = 4096;

std::int64_t file_mtime_ticks(const std::string& path) {
  if (path.empty()) return 0;
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (ec) return 0;
  return static_cast<std::int64_t>(t.time_since_epoch().count());
}

/// Dataset freshness: the directory's mtime or its manifest's, whichever is
/// newer (rewriting a dataset in place touches the manifest; adding or
/// removing files touches the directory).
std::int64_t dataset_mtime_ticks(const std::string& directory) {
  const std::string manifest =
      (std::filesystem::path(directory) / "manifest.json").string();
  return std::max(file_mtime_ticks(directory), file_mtime_ticks(manifest));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank), samples.end());
  return samples[rank];
}

}  // namespace

ScenarioService::ScenarioService() : ScenarioService(Options{}) {}

ScenarioService::ScenarioService(Options options)
    : options_(options), cache_(options.cache_entries) {
  int jobs = options_.jobs > 0 ? options_.jobs
                               : static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  workers_.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) workers_.emplace_back([this] { worker_loop(); });
  set_scenario_dataset_loader(
      [this](const ScenarioSource& source) { return load_resident_dataset(source); });
}

ScenarioService::~ScenarioService() {
  // Uninstall the seam before anything it captures is torn down.
  set_scenario_dataset_loader({});
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ScenarioService::set_wakeup(std::function<void()> wakeup) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  wakeup_ = std::move(wakeup);
}

Json ScenarioService::error_envelope(const std::string& message) {
  Json j;
  j["type"] = "error";
  j["message"] = message;
  return j;
}

std::vector<Json> ScenarioService::handle_payload(std::uint64_t client,
                                                  std::string_view payload) {
  Json request;
  try {
    request = Json::parse(std::string(payload));
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++requests_total_;
    ++errors_total_;
    return {error_envelope(e.what())};
  }
  return handle_request(client, request);
}

std::vector<Json> ScenarioService::handle_request(std::uint64_t client,
                                                  const Json& request) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++requests_total_;
  }
  try {
    require(request.is_object(), "request must be a JSON object");
    const std::string type = request.string_or("type", "");
    require(!type.empty(), "request requires a \"type\" string");
    if (type == "ping") {
      Json j;
      j["type"] = "pong";
      return {std::move(j)};
    }
    if (type == "stats") return {stats_json()};
    if (type == "shutdown") {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      Json j;
      j["type"] = "shutting_down";
      return {std::move(j)};
    }
    if (type == "run") return handle_run(client, request);
    throw ConfigError("unknown request type: \"" + type +
                      "\" (expected ping, stats, run, or shutdown)");
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++errors_total_;
    return {error_envelope(e.what())};
  }
}

std::vector<Json> ScenarioService::handle_run(std::uint64_t client,
                                              const Json& request) {
  require(request.contains("batch"), "run request requires a \"batch\"");
  ScenarioBatch batch = ScenarioBatch::from_json(request.at("batch"));
  const std::string id = request.string_or("id", "");
  // Pre-flight: an unknown scenario type fails the whole request as a
  // structured error (same contract as the CLI) before anything runs.
  for (const ScenarioSpec& spec : batch.scenarios) {
    ScenarioRegistry::instance().require_type(spec.type);
  }
  // Resolve effective seeds exactly as the runner does, so the content
  // identity of a seedless spec includes the seed it actually runs with.
  resolve_scenario_seeds(batch.scenarios, batch.seed);

  std::vector<Json> replies;
  Json accepted;
  accepted["type"] = "accepted";
  accepted["id"] = id;
  accepted["scenarios"] = static_cast<std::int64_t>(batch.scenarios.size());
  replies.push_back(std::move(accepted));

  if (batch.scenarios.empty()) {
    BatchState empty;
    empty.client = client;
    empty.request_id = id;
    replies.push_back(batch_done_envelope(empty));
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++batches_total_;
    return replies;
  }

  std::uint64_t token = 0;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    token = next_batch_token_++;
    BatchState state;
    state.client = client;
    state.request_id = id;
    state.scenarios = batch.scenarios.size();
    state.remaining = batch.scenarios.size();
    batches_.emplace(token, std::move(state));
    ++batches_total_;
    scenarios_submitted_ += batch.scenarios.size();
  }

  std::vector<Job> to_run;
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    ScenarioSpec& spec = batch.scenarios[i];
    ScenarioKey key;
    const bool cacheable = compute_key(spec, &key);
    const std::shared_ptr<const std::string> hit =
        cacheable ? cache_.lookup(key) : nullptr;
    if (hit) {
      Json envelope;
      envelope["type"] = "result";
      envelope["id"] = id;
      envelope["index"] = static_cast<std::int64_t>(i);
      envelope["name"] = spec.name;
      envelope["cached"] = true;
      envelope["elapsed_ms"] = 0.0;
      envelope["result"] = Json::parse(*hit);
      replies.push_back(std::move(envelope));
      const std::lock_guard<std::mutex> lock(state_mutex_);
      account_scenario(token, /*failed=*/false, /*cached=*/true, &replies);
      continue;
    }
    Job job;
    job.client = client;
    job.batch = token;
    job.request_id = id;
    job.index = i;
    job.spec = std::move(spec);
    job.key = key;
    job.cacheable = cacheable;
    to_run.push_back(std::move(job));
  }

  if (!to_run.empty()) {
    in_flight_.fetch_add(to_run.size(), std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      for (Job& job : to_run) queue_.push_back(std::move(job));
    }
    queue_cv_.notify_all();
  }
  return replies;
}

bool ScenarioService::compute_key(const ScenarioSpec& spec, ScenarioKey* key) {
  try {
    const ConfigMemoKey memo_key{spec.config_path, file_mtime_ticks(spec.config_path),
                                 canonical_json_hash(spec.config_delta)};
    std::uint64_t config_hash = 0;
    bool memoized = false;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = config_hash_memo_.find(memo_key);
      if (it != config_hash_memo_.end()) {
        config_hash = it->second;
        memoized = true;
      }
    }
    if (!memoized) {
      config_hash = canonical_json_hash(resolved_config_json(spec));
      const std::lock_guard<std::mutex> lock(state_mutex_);
      if (config_hash_memo_.size() >= kConfigMemoMaxEntries) {
        config_hash_memo_.clear();
      }
      config_hash_memo_.emplace(memo_key, config_hash);
    }
    std::uint64_t spec_hash = canonical_json_hash(canonical_spec_json(spec));
    if (spec.source.kind == ScenarioSource::Kind::kDataset) {
      // Fold the dataset's freshness into the identity: re-recording a
      // dataset in place must not serve the stale result.
      spec_hash = stable_hash_combine(
          spec_hash, static_cast<std::uint64_t>(dataset_mtime_ticks(spec.source.path)));
    }
    key->spec_hash = spec_hash;
    key->config_hash = config_hash;
    return true;
  } catch (const std::exception&) {
    // Unresolvable config (missing file...): the execution will surface the
    // real error; just never cache under a bogus key.
    return false;
  }
}

void ScenarioService::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    Json running;
    running["type"] = "status";
    running["id"] = job.request_id;
    running["index"] = static_cast<std::int64_t>(job.index);
    running["name"] = job.spec.name;
    running["status"] = "running";
    push_completion(job.client, std::move(running));

    const Clock::time_point start = Clock::now();
    ScenarioResult result = run_isolated(job.spec, ScenarioRegistry::instance());
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    const bool failed = result.status == ScenarioResult::Status::kFailed;

    Json wire = result.to_wire_json();
    if (!failed && job.cacheable) {
      cache_.insert(job.key, std::make_shared<const std::string>(wire.dump()));
    }
    record_latency(job.spec.type, elapsed_ms);

    Json envelope;
    envelope["type"] = "result";
    envelope["id"] = job.request_id;
    envelope["index"] = static_cast<std::int64_t>(job.index);
    envelope["name"] = job.spec.name;
    envelope["cached"] = false;
    envelope["elapsed_ms"] = elapsed_ms;
    envelope["result"] = std::move(wire);

    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      ++scenarios_executed_;
      if (failed) ++scenarios_failed_;
      completions_.push_back(Completion{job.client, std::move(envelope)});
      std::vector<Json> dones;
      account_scenario(job.batch, failed, /*cached=*/false, &dones);
      for (Json& done : dones) {
        completions_.push_back(Completion{job.client, std::move(done)});
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    drained_cv_.notify_all();
    std::function<void()> wakeup;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      wakeup = wakeup_;
    }
    if (wakeup) wakeup();
  }
}

void ScenarioService::push_completion(std::uint64_t client, Json envelope) {
  std::function<void()> wakeup;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    completions_.push_back(Completion{client, std::move(envelope)});
    wakeup = wakeup_;
  }
  if (wakeup) wakeup();
}

void ScenarioService::account_scenario(std::uint64_t batch, bool failed, bool cached,
                                       std::vector<Json>* out) {
  const auto it = batches_.find(batch);
  if (it == batches_.end()) return;
  BatchState& state = it->second;
  --state.remaining;
  if (failed) {
    ++state.failed;
  } else {
    ++state.done;
  }
  if (cached) ++state.cached;
  if (state.remaining == 0) {
    out->push_back(batch_done_envelope(state));
    batches_.erase(it);
  }
}

Json ScenarioService::batch_done_envelope(const BatchState& state) {
  Json j;
  j["type"] = "batch_done";
  j["id"] = state.request_id;
  j["scenarios"] = static_cast<std::int64_t>(state.scenarios);
  j["done"] = static_cast<std::int64_t>(state.done);
  j["failed"] = static_cast<std::int64_t>(state.failed);
  j["cached"] = static_cast<std::int64_t>(state.cached);
  return j;
}

void ScenarioService::record_latency(const std::string& type, double elapsed_ms) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  LatencyTrack& track = latency_[type];
  if (track.bucket_counts.empty()) track.bucket_counts.resize(kLatencyBucketCount, 0);
  ++track.count;
  track.max_ms = std::max(track.max_ms, elapsed_ms);
  std::size_t bucket = 0;
  while (bucket < kLatencyBucketCount - 1 && elapsed_ms > kLatencyBucketsMs[bucket]) {
    ++bucket;
  }
  ++track.bucket_counts[bucket];
  if (track.recent_ms.size() < kLatencyRingCapacity) {
    track.recent_ms.push_back(elapsed_ms);
  } else {
    track.recent_ms[track.next_slot] = elapsed_ms;
    track.next_slot = (track.next_slot + 1) % kLatencyRingCapacity;
  }
}

std::vector<ScenarioService::Completion> ScenarioService::drain_completions() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<Completion> out;
  out.swap(completions_);
  return out;
}

void ScenarioService::forget_client(std::uint64_t client) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  completions_.erase(
      std::remove_if(completions_.begin(), completions_.end(),
                     [&](const Completion& c) { return c.client == client; }),
      completions_.end());
}

void ScenarioService::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_relaxed) == 0;
  });
}

Json ScenarioService::stats_json() const {
  Json j;
  j["type"] = "stats";
  j["uptime_s"] = std::chrono::duration<double>(Clock::now() - started_).count();

  const ResultCache::Stats cache_stats = cache_.stats();
  Json cache;
  cache["hits"] = static_cast<std::int64_t>(cache_stats.hits);
  cache["misses"] = static_cast<std::int64_t>(cache_stats.misses);
  cache["insertions"] = static_cast<std::int64_t>(cache_stats.insertions);
  cache["evictions"] = static_cast<std::int64_t>(cache_stats.evictions);
  cache["entries"] = static_cast<std::int64_t>(cache_stats.entries);
  cache["capacity"] = static_cast<std::int64_t>(cache_stats.capacity);
  const std::uint64_t lookups = cache_stats.hits + cache_stats.misses;
  cache["hit_rate"] = lookups == 0 ? 0.0
                                   : static_cast<double>(cache_stats.hits) /
                                         static_cast<double>(lookups);
  j["cache"] = std::move(cache);

  {
    const std::lock_guard<std::mutex> lock(dataset_mutex_);
    Json datasets;
    datasets["resident"] = static_cast<std::int64_t>(dataset_index_.size());
    datasets["resident_bytes"] = static_cast<std::int64_t>(dataset_resident_bytes_);
    datasets["loads"] = static_cast<std::int64_t>(dataset_loads_);
    datasets["hits"] = static_cast<std::int64_t>(dataset_hits_);
    j["datasets"] = std::move(datasets);
  }

  const std::lock_guard<std::mutex> lock(state_mutex_);
  j["requests_total"] = static_cast<std::int64_t>(requests_total_);
  j["batches_total"] = static_cast<std::int64_t>(batches_total_);
  j["scenarios_submitted"] = static_cast<std::int64_t>(scenarios_submitted_);
  j["scenarios_executed"] = static_cast<std::int64_t>(scenarios_executed_);
  j["scenarios_failed"] = static_cast<std::int64_t>(scenarios_failed_);
  j["errors_total"] = static_cast<std::int64_t>(errors_total_);
  j["in_flight"] = static_cast<std::int64_t>(in_flight_.load(std::memory_order_relaxed));

  Json latency;
  for (const auto& [type, track] : latency_) {
    Json t;
    t["count"] = static_cast<std::int64_t>(track.count);
    t["max_ms"] = track.max_ms;
    t["p50_ms"] = percentile(track.recent_ms, 0.50);
    t["p95_ms"] = percentile(track.recent_ms, 0.95);
    Json buckets{Json::Array{}};
    for (std::size_t b = 0; b < track.bucket_counts.size(); ++b) {
      Json pair{Json::Array{}};
      pair.push_back(b + 1 < kLatencyBucketCount
                         ? Json(kLatencyBucketsMs[b])
                         : Json("inf"));
      pair.push_back(Json(static_cast<std::int64_t>(track.bucket_counts[b])));
      buckets.push_back(std::move(pair));
    }
    t["buckets"] = std::move(buckets);
    latency[type] = std::move(t);
  }
  j["latency_ms"] = std::move(latency);
  return j;
}

std::shared_ptr<const TelemetryDataset> ScenarioService::load_resident_dataset(
    const ScenarioSource& source) {
  // Keyed by the format the load resolves to, so a format-less source and
  // one naming its manifest's format share one resident copy.
  const std::string format =
      source.format.empty() ? read_manifest(source.path).format : source.format;
  const DatasetKey key{source.path, format, dataset_mtime_ticks(source.path)};
  const std::lock_guard<std::mutex> lock(dataset_mutex_);
  const auto it = dataset_index_.find(key);
  if (it != dataset_index_.end()) {
    ++dataset_hits_;
    dataset_order_.splice(dataset_order_.begin(), dataset_order_, it->second);
    return it->second->dataset;
  }
  // Loading under the lock serializes concurrent first-touches of the same
  // dataset — exactly the duplicate work residency exists to avoid.
  auto resident = std::make_shared<const TelemetryDataset>(load_source_dataset(source));
  ++dataset_loads_;
  const std::size_t bytes = dataset_payload_bytes(*resident);
  dataset_order_.push_front(ResidentDataset{key, resident, bytes});
  dataset_index_[key] = dataset_order_.begin();
  dataset_resident_bytes_ += bytes;
  // Evict by resident bytes, coldest first, always keeping the entry just
  // touched: one dataset larger than the whole budget still gets cached
  // (evicting it would just reload it on every request).
  const double budget_bytes = options_.dataset_resident_mb * 1024.0 * 1024.0;
  while (budget_bytes > 0.0 && dataset_order_.size() > 1 &&
         static_cast<double>(dataset_resident_bytes_) > budget_bytes) {
    dataset_resident_bytes_ -= dataset_order_.back().bytes;
    dataset_index_.erase(dataset_order_.back().key);
    dataset_order_.pop_back();
  }
  return resident;
}

}  // namespace exadigit
