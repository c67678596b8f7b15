#include "server/scenario_service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/physical_twin.hpp"
#include "json/json.hpp"
#include "scenario/scenario_registry.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/store.hpp"

namespace exadigit {
namespace {

constexpr std::uint64_t kClient = 11;

/// Waits for every in-flight scenario, then returns `client`'s async
/// envelopes in completion order.
std::vector<Json> drain_for(ScenarioService& service, std::uint64_t client) {
  service.drain();
  std::vector<Json> out;
  for (ScenarioService::Completion& c : service.drain_completions()) {
    if (c.client == client) out.push_back(std::move(c.envelope));
  }
  return out;
}

std::vector<Json> of_type(const std::vector<Json>& envelopes, const std::string& type) {
  std::vector<Json> out;
  for (const Json& e : envelopes) {
    if (e.string_or("type", "") == type) out.push_back(e);
  }
  return out;
}

Json run_request(const std::string& batch_json, const std::string& id = "t") {
  Json request;
  request["type"] = "run";
  request["id"] = id;
  request["batch"] = Json::parse(batch_json);
  return request;
}

ScenarioService::Options small_options() {
  ScenarioService::Options options;
  options.jobs = 2;
  return options;
}

TEST(ScenarioServiceTest, PingPongAndShutdown) {
  ScenarioService service(small_options());
  const std::vector<Json> pong = service.handle_request(kClient, Json::parse(R"({"type":"ping"})"));
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0].string_or("type", ""), "pong");

  EXPECT_FALSE(service.shutdown_requested());
  const std::vector<Json> bye =
      service.handle_request(kClient, Json::parse(R"({"type":"shutdown"})"));
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0].string_or("type", ""), "shutting_down");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ScenarioServiceTest, MalformedRequestsErrorAndServiceStaysUsable) {
  ScenarioService service(small_options());
  const char* malformed[] = {
      R"({"type": "run", "batch")",                     // truncated JSON
      R"([1, 2, 3])",                                   // not an object
      R"({"no_type": true})",                           // missing type
      R"({"type": "launch_missiles"})",                 // unknown request type
      R"({"type": "run"})",                             // run without batch
      R"({"type": "run", "batch": {"scenarios": 7}})",  // invalid batch shape
      R"({"type": "run", "batch": [{"type": "no_such_scenario"}]})",
  };
  for (const char* payload : malformed) {
    const std::vector<Json> replies = service.handle_payload(kClient, payload);
    ASSERT_EQ(replies.size(), 1u) << payload;
    EXPECT_EQ(replies[0].string_or("type", ""), "error") << payload;
    EXPECT_FALSE(replies[0].string_or("message", "").empty()) << payload;
  }
  // Still healthy: a well-formed request runs end to end.
  const std::vector<Json> replies = service.handle_request(
      kClient, run_request(R"({"seed": 5, "scenarios": [
        {"name": "ok", "type": "whatif_dc380", "horizon_hours": 0.05}]})"));
  ASSERT_FALSE(replies.empty());
  EXPECT_EQ(replies[0].string_or("type", ""), "accepted");
  const std::vector<Json> envelopes = drain_for(service, kClient);
  ASSERT_EQ(of_type(envelopes, "batch_done").size(), 1u);
  EXPECT_EQ(service.stats_json().at("errors_total").as_int(), 7);
}

TEST(ScenarioServiceTest, RepeatSubmissionIsServedFromTheCacheBitIdentically) {
  ScenarioService service(small_options());
  const std::string batch = R"({"seed": 9, "scenarios": [
    {"name": "sim", "type": "simulate", "horizon_hours": 0.05},
    {"name": "wif", "type": "whatif_dc380", "horizon_hours": 0.05}]})";

  const std::vector<Json> first = service.handle_request(kClient, run_request(batch));
  ASSERT_EQ(first.size(), 1u);  // accepted only; everything executes async
  const std::vector<Json> envelopes = drain_for(service, kClient);
  const std::vector<Json> results = of_type(envelopes, "result");
  ASSERT_EQ(results.size(), 2u);
  for (const Json& r : results) EXPECT_FALSE(r.at("cached").as_bool());
  const std::vector<Json> done = of_type(envelopes, "batch_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].at("done").as_int(), 2);
  EXPECT_EQ(done[0].at("failed").as_int(), 0);
  EXPECT_EQ(done[0].at("cached").as_int(), 0);

  // The repeat answers synchronously, without re-running any factory.
  const std::uint64_t runs_before = scenario_run_count();
  const std::vector<Json> second = service.handle_request(kClient, run_request(batch));
  EXPECT_EQ(scenario_run_count(), runs_before);
  EXPECT_EQ(service.in_flight(), 0u);
  const std::vector<Json> cached_results = of_type(second, "result");
  ASSERT_EQ(cached_results.size(), 2u);
  for (const Json& r : cached_results) EXPECT_TRUE(r.at("cached").as_bool());
  const std::vector<Json> second_done = of_type(second, "batch_done");
  ASSERT_EQ(second_done.size(), 1u);
  EXPECT_EQ(second_done[0].at("cached").as_int(), 2);

  // Byte-identical result documents, matched by scenario index.
  for (const Json& cached : cached_results) {
    for (const Json& original : results) {
      if (original.at("index").as_int() == cached.at("index").as_int()) {
        EXPECT_EQ(cached.at("result").dump(), original.at("result").dump());
      }
    }
  }
}

TEST(ScenarioServiceTest, SpecReorderingsAndEquivalentDeltasAlsoHit) {
  ScenarioService service(small_options());
  const std::vector<Json> first = service.handle_request(
      kClient, run_request(R"({"seed": 4, "scenarios": [
        {"name": "a", "type": "simulate", "horizon_hours": 0.05, "seed": 3,
         "config": {"name": "frontier"}}]})"));
  (void)drain_for(service, kClient);

  // Same content spelled differently: members re-ordered, the delta
  // dropped entirely ("frontier" is the default name), and a different
  // batch seed (masked by the explicit spec seed).
  const std::uint64_t runs_before = scenario_run_count();
  const std::vector<Json> second = service.handle_request(
      kClient, run_request(R"({"scenarios": [
        {"seed": 3, "horizon_hours": 0.05, "type": "simulate", "name": "a"}],
        "seed": 77})"));
  EXPECT_EQ(scenario_run_count(), runs_before);
  const std::vector<Json> cached = of_type(second, "result");
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_TRUE(cached[0].at("cached").as_bool());
}

TEST(ScenarioServiceTest, FailuresAreIsolatedReportedAndNeverCached) {
  ScenarioService service(small_options());
  const std::string batch = R"({"seed": 2, "scenarios": [
    {"name": "bad", "type": "replay",
     "source": {"kind": "dataset", "path": "/nonexistent/exadigit_ds"}},
    {"name": "good", "type": "whatif_dc380", "horizon_hours": 0.05}]})";

  (void)service.handle_request(kClient, run_request(batch));
  const std::vector<Json> envelopes = drain_for(service, kClient);
  const std::vector<Json> done = of_type(envelopes, "batch_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].at("done").as_int(), 1);
  EXPECT_EQ(done[0].at("failed").as_int(), 1);
  for (const Json& r : of_type(envelopes, "result")) {
    if (r.string_or("name", "") == "bad") {
      EXPECT_EQ(r.at("result").at("status").as_string(), "failed");
      EXPECT_FALSE(r.at("result").string_or("error", "").empty());
    }
  }

  // Resubmitting re-executes the failed scenario (failures are never
  // cached) but serves the good one from the cache.
  const std::uint64_t runs_before = scenario_run_count();
  (void)service.handle_request(kClient, run_request(batch));
  (void)drain_for(service, kClient);
  EXPECT_EQ(scenario_run_count(), runs_before + 1);
}

TEST(ScenarioServiceTest, ForgetClientDropsOnlyThatClientsEnvelopes) {
  ScenarioService service(small_options());
  (void)service.handle_request(1, run_request(
      R"([{"name": "a", "type": "whatif_dc380", "horizon_hours": 0.05}])", "one"));
  (void)service.handle_request(2, run_request(
      R"([{"name": "b", "type": "whatif_smart_rectifiers", "horizon_hours": 0.05}])",
      "two"));
  service.drain();
  service.forget_client(1);
  std::size_t client1 = 0;
  std::size_t client2 = 0;
  for (const ScenarioService::Completion& c : service.drain_completions()) {
    if (c.client == 1) ++client1;
    if (c.client == 2) ++client2;
  }
  EXPECT_EQ(client1, 0u);
  EXPECT_GE(client2, 2u);  // at least the result and batch_done survive
}

TEST(ScenarioServiceTest, StatsDocumentTracksTheLifecycle) {
  ScenarioService service(small_options());
  const std::string batch =
      R"([{"name": "s", "type": "simulate", "horizon_hours": 0.05}])";
  (void)service.handle_request(kClient, run_request(batch));
  (void)drain_for(service, kClient);
  (void)service.handle_request(kClient, run_request(batch));  // cache hit

  const Json stats = service.stats_json();
  EXPECT_EQ(stats.string_or("type", ""), "stats");
  EXPECT_GE(stats.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(stats.at("batches_total").as_int(), 2);
  EXPECT_EQ(stats.at("scenarios_submitted").as_int(), 2);
  EXPECT_EQ(stats.at("scenarios_executed").as_int(), 1);
  EXPECT_EQ(stats.at("in_flight").as_int(), 0);
  EXPECT_EQ(stats.at("cache").at("hits").as_int(), 1);
  EXPECT_EQ(stats.at("cache").at("misses").as_int(), 1);
  EXPECT_EQ(stats.at("cache").at("entries").as_int(), 1);
  const Json& latency = stats.at("latency_ms");
  ASSERT_TRUE(latency.contains("simulate"));
  EXPECT_EQ(latency.at("simulate").at("count").as_int(), 1);
  EXPECT_GT(latency.at("simulate").at("p50_ms").as_number(), 0.0);
  // Bucket counts across the histogram sum to the execution count.
  std::int64_t total = 0;
  for (const Json& bucket : latency.at("simulate").at("buckets").as_array()) {
    total += bucket.as_array()[1].as_int();
  }
  EXPECT_EQ(total, 1);
}

TEST(ScenarioServiceTest, DatasetResidencyEvictsByBytesAndReportsThem) {
  namespace fs = std::filesystem;
  const std::string base =
      (fs::temp_directory_path() / "exadigit_service_lru_test").string();
  fs::remove_all(base);

  // Two tiny recorded datasets, each far larger than the byte budget below.
  const SystemConfig config = frontier_system_config();
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  const double duration = 600.0;
  const TimeSeries wetbulb =
      TimeSeries::uniform(0.0, 60.0, std::vector<double>(12, 15.0));
  std::vector<JobRecord> jobs = {make_constant_job(60.0, 300.0, 512, 0.5, 0.5)};
  const TelemetryDataset first = physical.record(jobs, wetbulb, duration);
  jobs[0].node_count = 1024;
  const TelemetryDataset second = physical.record(jobs, wetbulb, duration);
  save_dataset(first, base + "/a");
  save_dataset(second, base + "/b");

  ScenarioService::Options options = small_options();
  options.dataset_entries = 8;          // well above what we load
  options.dataset_resident_mb = 1e-4;   // ~105 bytes: every load evicts the rest
  ScenarioService service(options);
  // The explicit format routes replay through resolve_dataset and therefore
  // through the service's resident-dataset loader.
  auto replay_batch = [&](const std::string& dir) {
    return std::string(R"([{"name": "r-)") + dir + R"(", "type": "replay",
      "source": {"kind": "dataset", "path": ")" +
           base + "/" + dir + R"(", "format": "exadigit-csv"},
      "params": {"cooling": false}}])";
  };
  (void)service.handle_request(kClient, run_request(replay_batch("a"), "ra"));
  (void)drain_for(service, kClient);
  (void)service.handle_request(kClient, run_request(replay_batch("b"), "rb"));
  (void)drain_for(service, kClient);

  const Json stats = service.stats_json();
  const Json& datasets = stats.at("datasets");
  // Eviction is by bytes, not entry count: the 8-entry cap never tripped,
  // yet only the most recent dataset stays resident.
  EXPECT_EQ(datasets.at("loads").as_int(), 2);
  EXPECT_EQ(datasets.at("hits").as_int(), 0);
  EXPECT_EQ(datasets.at("resident").as_int(), 1);
  EXPECT_EQ(datasets.at("resident_bytes").as_int(),
            static_cast<std::int64_t>(dataset_payload_bytes(second)));
  fs::remove_all(base);
}

/// Acceptance (PR 8): the policy_sweep scenario runs end to end through the
/// server submit path — the registry-driven service needs no sweep-specific
/// code, and the wire result round-trips every per-policy metric and series.
TEST(ScenarioServiceTest, PolicySweepRunsThroughTheSubmitPath) {
  ScenarioService service(small_options());
  const std::string batch = R"({"scenarios": [
    {"name": "sweep", "type": "policy_sweep", "seed": 7, "horizon_hours": 0.1,
     "params": {"policies": [
       "fcfs", "easy_backfill",
       {"policy": "power_capped", "params": {"cap_mw": 18.0}, "label": "capped"}]}}]})";
  const std::vector<Json> replies = service.handle_request(kClient, run_request(batch));
  ASSERT_FALSE(replies.empty());
  EXPECT_EQ(replies[0].string_or("type", ""), "accepted");

  const std::vector<Json> envelopes = drain_for(service, kClient);
  const std::vector<Json> results = of_type(envelopes, "result");
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult result = ScenarioResult::from_wire_json(results[0].at("result"));
  EXPECT_EQ(result.status, ScenarioResult::Status::kDone) << result.error;
  for (const std::string label : {"fcfs", "easy_backfill", "capped"}) {
    EXPECT_TRUE(result.has_metric(label + ".jobs_completed")) << label;
    const auto it = result.channels.find(label + ".power_mw");
    ASSERT_NE(it, result.channels.end()) << label;
    EXPECT_FALSE(it->second.empty()) << label;
  }
  EXPECT_LE(result.metric("capped.max_power_mw"), 18.0);
  const std::vector<Json> done = of_type(envelopes, "batch_done");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].at("done").as_int(), 1);
  EXPECT_EQ(done[0].at("failed").as_int(), 0);
}

/// An unknown policy inside a sweep fails that scenario with a structured
/// error naming the valid policies — the batch itself still completes.
TEST(ScenarioServiceTest, PolicySweepUnknownPolicyFailsWithStructuredError) {
  ScenarioService service(small_options());
  const std::string batch = R"({"scenarios": [
    {"name": "bad", "type": "policy_sweep", "horizon_hours": 0.05,
     "params": {"policies": ["lottery"]}}]})";
  (void)service.handle_request(kClient, run_request(batch));
  const std::vector<Json> envelopes = drain_for(service, kClient);
  const std::vector<Json> results = of_type(envelopes, "result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("result").at("status").as_string(), "failed");
  const std::string error = results[0].at("result").string_or("error", "");
  EXPECT_NE(error.find("lottery"), std::string::npos) << error;
  EXPECT_NE(error.find("fcfs"), std::string::npos) << error;
}

TEST(ScenarioServiceTest, EmptyBatchCompletesImmediately) {
  ScenarioService service(small_options());
  const std::vector<Json> replies = service.handle_request(
      kClient, run_request(R"({"scenarios": []})"));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].string_or("type", ""), "accepted");
  EXPECT_EQ(replies[1].string_or("type", ""), "batch_done");
  EXPECT_EQ(replies[1].at("scenarios").as_int(), 0);
}

}  // namespace
}  // namespace exadigit
