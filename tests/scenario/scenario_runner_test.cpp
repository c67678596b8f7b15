#include "scenario/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/units.hpp"
#include "core/experiment.hpp"
#include "core/physical_twin.hpp"
#include "core/replay.hpp"
#include "core/whatif.hpp"
#include "raps/workload.hpp"
#include "telemetry/store.hpp"

namespace exadigit {
namespace {

void expect_reports_identical(const Report& a, const Report& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.avg_power_mw, b.avg_power_mw);
  EXPECT_EQ(a.min_power_mw, b.min_power_mw);
  EXPECT_EQ(a.max_power_mw, b.max_power_mw);
  EXPECT_EQ(a.total_energy_mwh, b.total_energy_mwh);
  EXPECT_EQ(a.avg_loss_mw, b.avg_loss_mw);
  EXPECT_EQ(a.avg_eta_system, b.avg_eta_system);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.carbon_tons, b.carbon_tons);
  EXPECT_EQ(a.energy_cost_usd, b.energy_cost_usd);
}

/// Acceptance: a concurrent batch holding a replay, a what-if, and a day
/// sweep reproduces the legacy direct-call paths bit-identically under
/// fixed seeds.
TEST(ScenarioRunnerTest, BatchMatchesDirectCallsBitIdentically) {
  const SystemConfig config = frontier_system_config();
  const double replay_hours = 0.25;
  const double whatif_hours = 0.5;

  ScenarioSpec replay;
  replay.name = "replay";
  replay.type = "replay";
  replay.source.kind = ScenarioSource::Kind::kSynthetic;
  replay.source.hours = replay_hours;
  replay.source.seed = 77;
  Json replay_params;
  replay_params["cooling"] = false;
  replay.params = std::move(replay_params);

  ScenarioSpec whatif;
  whatif.name = "dc380";
  whatif.type = "whatif_dc380";
  whatif.horizon_hours = whatif_hours;
  whatif.seed = 12;

  ScenarioSpec sweep;
  sweep.name = "sweep";
  sweep.type = "day_sweep";
  sweep.seed = 123;
  Json sweep_params;
  sweep_params["days"] = 2;
  sweep_params["cooling"] = false;
  sweep.params = std::move(sweep_params);

  ScenarioRunner::Options options;
  options.jobs = 3;
  const std::vector<ScenarioResult> results =
      ScenarioRunner(options).run({replay, whatif, sweep});
  ASSERT_EQ(results.size(), 3u);
  for (const ScenarioResult& r : results) {
    EXPECT_EQ(r.status, ScenarioResult::Status::kDone) << r.name << ": " << r.error;
  }

  // Legacy replay path: record the same synthetic dataset, replay directly.
  {
    const double duration = replay_hours * units::kSecondsPerHour;
    WorkloadGenerator gen(config.workload, config, Rng(77));
    SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
    const TelemetryDataset dataset =
        physical.record(gen.generate(0.0, duration),
                        synthetic_wetbulb_series(duration, 78), duration);
    const PowerReplayResult direct = replay_power(config, dataset, false);
    ASSERT_TRUE(results[0].report.has_value());
    expect_reports_identical(*results[0].report, direct.report);
    EXPECT_EQ(results[0].metric("power_rmse_mw"), direct.power_score.rmse);
    EXPECT_EQ(results[0].metric("power_pearson"), direct.power_score.pearson);
    const TimeSeries& predicted = results[0].channels.at("predicted_power_mw");
    ASSERT_EQ(predicted.size(), direct.predicted_power_mw.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(predicted.value(i), direct.predicted_power_mw.value(i));
    }
  }

  // Legacy what-if path.
  {
    const double duration = whatif_hours * units::kSecondsPerHour;
    WorkloadGenerator gen(config.workload, config, Rng(12));
    const WhatIfResult direct = run_dc380_whatif(config, gen.generate(0.0, duration),
                                                 duration);
    EXPECT_EQ(results[1].metric("delta_eta"), direct.delta_eta);
    EXPECT_EQ(results[1].metric("annual_savings_usd"), direct.annual_savings_usd);
    EXPECT_EQ(results[1].metric("carbon_delta_frac"), direct.carbon_delta_frac);
    ASSERT_TRUE(results[1].report.has_value());
    expect_reports_identical(*results[1].report, direct.variant);
  }

  // Legacy day-sweep path.
  {
    DaySweepConfig sweep_config;
    sweep_config.days = 2;
    sweep_config.seed = 123;
    sweep_config.with_cooling = false;
    const DaySweepResult direct = run_day_sweep(config, sweep_config);
    EXPECT_EQ(results[2].metric("days"), 2.0);
    double energy = 0.0;
    for (const Report& day : direct.daily) energy += day.total_energy_mwh;
    EXPECT_EQ(results[2].metric("total_energy_mwh"), energy);
    const TimeSeries& daily = results[2].channels.at("daily_avg_power_mw");
    ASSERT_EQ(daily.size(), direct.daily.size());
    for (std::size_t d = 0; d < daily.size(); ++d) {
      EXPECT_EQ(daily.value(d), direct.daily[d].avg_power_mw);
    }
  }
}

TEST(ScenarioRunnerTest, SerialAndConcurrentRunsAgree) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.name = "whatif-" + std::to_string(i);
    spec.type = i % 2 == 0 ? "whatif_dc380" : "whatif_smart_rectifiers";
    spec.horizon_hours = 0.25;
    specs.push_back(std::move(spec));  // no seed: runner derives per-spec seeds
  }
  ScenarioRunner::Options serial_options;
  serial_options.jobs = 1;
  serial_options.batch_seed = 5;
  ScenarioRunner::Options pool_options;
  pool_options.jobs = 4;
  pool_options.batch_seed = 5;
  const auto serial = ScenarioRunner(serial_options).run(specs);
  const auto pooled = ScenarioRunner(pool_options).run(specs);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, ScenarioResult::Status::kDone);
    EXPECT_EQ(pooled[i].status, ScenarioResult::Status::kDone);
    ASSERT_EQ(serial[i].summary.size(), pooled[i].summary.size());
    for (std::size_t m = 0; m < serial[i].summary.size(); ++m) {
      EXPECT_EQ(serial[i].summary[m].name, pooled[i].summary[m].name);
      EXPECT_EQ(serial[i].summary[m].value, pooled[i].summary[m].value) << serial[i].name;
    }
  }
  // Different scenarios drew different derived seeds.
  EXPECT_NE(serial[0].metric("variant_avg_power_mw"),
            serial[2].metric("variant_avg_power_mw"));
}

TEST(ScenarioRunnerTest, DerivedSeedsAreStable) {
  EXPECT_EQ(derive_scenario_seed(42, 0), derive_scenario_seed(42, 0));
  EXPECT_NE(derive_scenario_seed(42, 0), derive_scenario_seed(42, 1));
  EXPECT_NE(derive_scenario_seed(42, 0), derive_scenario_seed(43, 0));
}

TEST(ScenarioRunnerTest, FailedScenarioDoesNotSinkTheBatch) {
  ScenarioSpec bad;
  bad.name = "bad";
  bad.type = "no_such_type";
  ScenarioSpec good;
  good.name = "good";
  good.type = "whatif_cooling_extension";
  ScenarioRunner::Options options;
  options.jobs = 2;
  const auto results = ScenarioRunner(options).run({bad, good});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, ScenarioResult::Status::kFailed);
  EXPECT_NE(results[0].error.find("no_such_type"), std::string::npos);
  EXPECT_EQ(results[1].status, ScenarioResult::Status::kDone);
  EXPECT_GT(results[1].metric("extended_pue"), 1.0);
}

TEST(ScenarioRunnerTest, NonStandardExceptionIsContained) {
  // User factories may throw anything; the pool must never std::terminate.
  ScenarioRegistry registry;
  registry.register_type("throws_int",
                         [](const ScenarioSpec&) -> ScenarioResult { throw 42; });
  registry.register_type("ok", [](const ScenarioSpec&) {
    ScenarioResult r;
    r.add_metric("x", 1.0);
    return r;
  });
  ScenarioSpec bad;
  bad.name = "bad";
  bad.type = "throws_int";
  ScenarioSpec good;
  good.name = "good";
  good.type = "ok";
  ScenarioRunner::Options options;
  options.jobs = 2;
  const auto results = ScenarioRunner(options).run({bad, good}, registry);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, ScenarioResult::Status::kFailed);
  EXPECT_NE(results[0].error.find("non-standard"), std::string::npos);
  EXPECT_EQ(results[1].status, ScenarioResult::Status::kDone);
}

TEST(ScenarioRunnerTest, StatusCallbackSeesEveryTransition) {
  ScenarioSpec spec;
  spec.name = "ext";
  spec.type = "whatif_cooling_extension";
  std::vector<std::pair<std::size_t, ScenarioResult::Status>> events;
  ScenarioRunner::Options options;
  options.jobs = 2;
  options.on_status = [&events](std::size_t index, const ScenarioSpec& s,
                                ScenarioResult::Status status) {
    EXPECT_TRUE(s.seed.has_value());  // effective specs carry derived seeds
    events.emplace_back(index, status);
  };
  const auto results = ScenarioRunner(options).run({spec, spec});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(events.size(), 4u);  // kRunning + kDone per scenario
  int running = 0;
  int done = 0;
  for (const auto& [index, status] : events) {
    EXPECT_LT(index, 2u);
    if (status == ScenarioResult::Status::kRunning) ++running;
    if (status == ScenarioResult::Status::kDone) ++done;
  }
  EXPECT_EQ(running, 2);
  EXPECT_EQ(done, 2);
}

TEST(ScenarioRunnerTest, ResultCallbackStreamsCompletionsIncludingFailures) {
  // The streaming hook the scenario service is built on: every completion
  // (success or failure) arrives exactly once, after its terminal status,
  // carrying the same object that run() later returns.
  ScenarioRegistry registry;
  registry.register_type("ok", [](const ScenarioSpec& s) {
    ScenarioResult r;
    r.add_metric("seed_echo", static_cast<double>(s.seed_or(0)));
    return r;
  });
  registry.register_type("boom", [](const ScenarioSpec&) -> ScenarioResult {
    throw ConfigError("deliberate");
  });
  std::vector<ScenarioSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "s" + std::to_string(i);
    specs[i].type = i == 2 ? "boom" : "ok";
  }
  std::vector<std::size_t> order;
  std::vector<ScenarioResult> streamed(specs.size());
  std::vector<ScenarioResult::Status> status_at_callback(specs.size(),
                                                         ScenarioResult::Status::kPending);
  ScenarioRunner::Options options;
  options.jobs = 4;
  options.on_status = [&](std::size_t index, const ScenarioSpec&,
                          ScenarioResult::Status status) {
    if (status != ScenarioResult::Status::kRunning) status_at_callback[index] = status;
  };
  options.on_result = [&](std::size_t index, const ScenarioSpec& spec,
                          const ScenarioResult& result) {
    EXPECT_TRUE(spec.seed.has_value());
    // The terminal on_status for this index already fired.
    EXPECT_EQ(status_at_callback[index], result.status);
    order.push_back(index);
    streamed[index] = result;
  };
  const auto results = ScenarioRunner(options).run(specs, registry);
  ASSERT_EQ(order.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(streamed[i].status, results[i].status);
    EXPECT_EQ(streamed[i].error, results[i].error);
    if (results[i].status == ScenarioResult::Status::kDone) {
      EXPECT_EQ(streamed[i].metric("seed_echo"), results[i].metric("seed_echo"));
    }
  }
  EXPECT_EQ(streamed[2].status, ScenarioResult::Status::kFailed);
  EXPECT_NE(streamed[2].error.find("deliberate"), std::string::npos);
}

TEST(ScenarioRunnerTest, ExportsSummariesAndSeries) {
  ScenarioSpec spec;
  spec.name = "export me/please";
  spec.type = "whatif_dc380";
  spec.horizon_hours = 0.25;
  spec.seed = 3;
  const ScenarioResult result = ScenarioRegistry::instance().run(spec);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "exadigit_scenario_export_test";
  std::filesystem::remove_all(dir);
  result.export_files(dir.string());
  const std::string stem = (dir / sanitize_scenario_name(spec.name)).string();
  EXPECT_EQ(sanitize_scenario_name(spec.name), "export_me_please");
  EXPECT_GT(std::filesystem::file_size(stem + ".summary.json"), 0u);
  // A what-if has no channels, so the series file is header-only but valid.
  EXPECT_GT(std::filesystem::file_size(stem + ".series.csv"), 0u);

  const Json summary = Json::load_file(stem + ".summary.json");
  EXPECT_EQ(summary.at("name").as_string(), spec.name);
  EXPECT_EQ(summary.at("status").as_string(), "done");
  EXPECT_DOUBLE_EQ(summary.at("summary").at("delta_eta").as_number(),
                   result.metric("delta_eta"));
  std::filesystem::remove_all(dir);
}

TEST(ScenarioRunnerTest, RunsBatchWithItsOwnSettings) {
  const char* text = R"({
    "jobs": 2,
    "seed": 9,
    "scenarios": [
      {"name": "a", "type": "whatif_cooling_extension"},
      {"name": "b", "type": "whatif_cooling_extension",
       "params": {"extra_heat_mw": 12.0}}
    ]
  })";
  const ScenarioBatch batch = ScenarioBatch::from_json(Json::parse(text));
  const auto results = ScenarioRunner().run(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, ScenarioResult::Status::kDone);
  EXPECT_EQ(results[1].status, ScenarioResult::Status::kDone);
  // More bolt-on heat loads the plant at least as hard.
  EXPECT_GE(results[1].metric("extended_htws_c"), results[0].metric("extended_htws_c"));
}

/// The "engine" param selects the legacy tick loop for A/B validation
/// batches; both engines must produce bit-identical simulate results.
TEST(ScenarioRunnerTest, SimulateEngineParamTickMatchesEvent) {
  auto make_spec = [](const char* engine) {
    ScenarioSpec spec;
    spec.name = std::string("sim-") + engine;
    spec.type = "simulate";
    spec.horizon_hours = 0.25;
    spec.seed = 11;
    Json params;
    params["cooling"] = false;
    params["engine"] = Json(std::string(engine));
    spec.params = std::move(params);
    return spec;
  };
  const ScenarioResult event = ScenarioRegistry::instance().run(make_spec("event"));
  const ScenarioResult tick = ScenarioRegistry::instance().run(make_spec("tick"));
  ASSERT_EQ(event.summary.size(), tick.summary.size());
  for (std::size_t i = 0; i < event.summary.size(); ++i) {
    EXPECT_EQ(event.summary[i].value, tick.summary[i].value)
        << "metric " << event.summary[i].name;
  }
  EXPECT_THROW(ScenarioRegistry::instance().run(make_spec("warp")), ConfigError);
}

/// The "hydraulics" param selects the always-solve reference for cooling
/// A/B batches; both strategies must produce bit-identical simulate
/// results (the dedup reuse is keyed on exact operating-point equality).
TEST(ScenarioRunnerTest, SimulateHydraulicsParamAlwaysSolveMatchesDedup) {
  auto make_spec = [](const char* hydraulics) {
    ScenarioSpec spec;
    spec.name = std::string("sim-") + hydraulics;
    spec.type = "simulate";
    spec.horizon_hours = 0.25;
    spec.seed = 11;
    Json params;
    params["hydraulics"] = Json(std::string(hydraulics));
    spec.params = std::move(params);
    return spec;
  };
  const ScenarioResult dedup = ScenarioRegistry::instance().run(make_spec("dedup"));
  const ScenarioResult ref = ScenarioRegistry::instance().run(make_spec("always_solve"));
  ASSERT_EQ(dedup.summary.size(), ref.summary.size());
  for (std::size_t i = 0; i < dedup.summary.size(); ++i) {
    EXPECT_EQ(dedup.summary[i].value, ref.summary[i].value)
        << "metric " << dedup.summary[i].name;
  }
  const TimeSeries& pue_a = dedup.channels.at("pue");
  const TimeSeries& pue_b = ref.channels.at("pue");
  ASSERT_EQ(pue_a.size(), pue_b.size());
  for (std::size_t i = 0; i < pue_a.size(); ++i) {
    EXPECT_EQ(pue_a.values()[i], pue_b.values()[i]) << "pue sample " << i;
  }
  EXPECT_THROW(ScenarioRegistry::instance().run(make_spec("sometimes")), ConfigError);
}

/// The "thermal" param selects the scalar HX-kernel reference for A/B
/// batches; both kernels must produce bit-identical simulate results (the
/// batched kernel's lane math runs the same operations in the same order).
TEST(ScenarioRunnerTest, SimulateThermalParamScalarMatchesBatched) {
  auto make_spec = [](const char* thermal) {
    ScenarioSpec spec;
    spec.name = std::string("sim-") + thermal;
    spec.type = "simulate";
    spec.horizon_hours = 0.25;
    spec.seed = 11;
    Json params;
    params["thermal"] = Json(std::string(thermal));
    spec.params = std::move(params);
    return spec;
  };
  const ScenarioResult batched = ScenarioRegistry::instance().run(make_spec("batched"));
  const ScenarioResult scalar = ScenarioRegistry::instance().run(make_spec("scalar"));
  ASSERT_EQ(batched.summary.size(), scalar.summary.size());
  for (std::size_t i = 0; i < batched.summary.size(); ++i) {
    EXPECT_EQ(batched.summary[i].value, scalar.summary[i].value)
        << "metric " << batched.summary[i].name;
  }
  const TimeSeries& pue_a = batched.channels.at("pue");
  const TimeSeries& pue_b = scalar.channels.at("pue");
  ASSERT_EQ(pue_a.size(), pue_b.size());
  for (std::size_t i = 0; i < pue_a.size(); ++i) {
    EXPECT_EQ(pue_a.values()[i], pue_b.values()[i]) << "pue sample " << i;
  }
  EXPECT_THROW(ScenarioRegistry::instance().run(make_spec("vectorish")), ConfigError);
}

/// A twin runs serially, so "threads" is not a simulate param: like any
/// unknown field it fails before the twin is built.
TEST(ScenarioRunnerTest, SimulateRejectsThreadsParam) {
  ScenarioSpec spec;
  spec.name = "sim-threads";
  spec.type = "simulate";
  spec.horizon_hours = 0.25;
  Json params;
  params["threads"] = Json(static_cast<std::int64_t>(2));
  spec.params = std::move(params);
  EXPECT_THROW(ScenarioRegistry::instance().run(spec), ConfigError);
}

TEST(ScenarioRunnerTest, DatasetReplayIdenticalAcrossFormatsAndLoaders) {
  // A saved dataset replayed through the scenario surface must give the
  // same answer whether it sits on disk as CSV (columnar single-pass,
  // auto-detected), CSV via the explicit registry reader, or binary.
  namespace fs = std::filesystem;
  const std::string base = (fs::temp_directory_path() / "exadigit_scn_fmt").string();
  fs::remove_all(base);
  const SystemConfig config = frontier_system_config();
  const double duration = 0.1 * units::kSecondsPerHour;
  WorkloadGenerator gen(config.workload, config, Rng(5));
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  const TelemetryDataset dataset = physical.record(
      gen.generate(0.0, duration), synthetic_wetbulb_series(duration, 6), duration);
  save_dataset(dataset, base + "/csv");
  save_dataset_binary(dataset, base + "/bin");

  auto replay_spec = [](const std::string& name, const std::string& path,
                        const std::string& format) {
    ScenarioSpec s;
    s.name = name;
    s.type = "replay";
    s.source.kind = ScenarioSource::Kind::kDataset;
    s.source.path = path;
    s.source.format = format;
    Json params;
    params["cooling"] = false;
    s.params = std::move(params);
    return s;
  };
  const ScenarioResult columnar =
      ScenarioRegistry::instance().run(replay_spec("columnar", base + "/csv", ""));
  const ScenarioResult via_reader = ScenarioRegistry::instance().run(
      replay_spec("reader", base + "/csv", "exadigit-csv"));
  const ScenarioResult binary =
      ScenarioRegistry::instance().run(replay_spec("binary", base + "/bin", ""));

  for (const ScenarioResult* other : {&via_reader, &binary}) {
    ASSERT_EQ(columnar.summary.size(), other->summary.size());
    for (std::size_t i = 0; i < columnar.summary.size(); ++i) {
      EXPECT_EQ(columnar.summary[i].value, other->summary[i].value)
          << other->name << " metric " << columnar.summary[i].name;
    }
    const TimeSeries& a = columnar.channels.at("predicted_power_mw");
    const TimeSeries& b = other->channels.at("predicted_power_mw");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.value(i), b.value(i)) << other->name << " sample " << i;
    }
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace exadigit
