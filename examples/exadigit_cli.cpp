/// The terminal console interface (paper Fig. 6 top-right): a CLI over the
/// twin's main workflows, driven by JSON descriptors (Section V).
///
/// `run` is the single declarative entry point: it executes any batch of
/// scenarios — replays, what-ifs, day sweeps, thermal scans, optimizer
/// runs — concurrently through the ScenarioRegistry/ScenarioRunner, and
/// exports per-scenario summaries and series. The remaining subcommands
/// are interactive conveniences over the same kernels.
///
///   exadigit_cli run       <scenarios.json> [--jobs N] [--out DIR] [--seed S]
///   exadigit_cli simulate  [--hours H] [--seed S] [--config system.json]
///   exadigit_cli replay    <dataset_dir> [--config system.json] [--no-cooling]
///   exadigit_cli record    <output_dir> [--hours H] [--seed S]
///                          [--format exadigit-csv|exadigit-bin] [--chunk-seconds W]
///   exadigit_cli whatif    <smart_rectifiers|dc380> [--hours H]
///   exadigit_cli optimize  [--power-mw P] [--wetbulb C]
///   exadigit_cli scene     <output.json>
///   exadigit_cli config    <output.json>      # dump the Frontier descriptor
///   exadigit_cli types                        # list registered scenario types
///
/// With a running `exadigit_server`, `submit` is the thin-client twin of
/// `run`: the batch executes inside the warm server process (resident
/// datasets, content-addressed result cache) and the exported files are
/// identical to a local `run`.
///
///   exadigit_cli submit    <scenarios.json> --connect host:port [--out DIR] [--id NAME]
///   exadigit_cli stats     --connect host:port

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/parse.hpp"
#include "common/socket.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/physical_twin.hpp"
#include "core/replay.hpp"
#include "raps/workload.hpp"
#include "scenario/scenario_runner.hpp"
#include "server/framing.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/store.hpp"
#include "viz/dashboard.hpp"
#include "viz/scene_export.hpp"

using namespace exadigit;

namespace {

struct Args {
  std::vector<std::string> positional;
  double hours = 1.0;
  std::uint64_t seed = 42;
  double power_mw = 17.0;
  double wetbulb_c = 16.0;
  std::string config_path;
  std::string out_dir = "scenario_out";
  bool cooling = true;
  bool seed_set = false;  ///< --seed appeared (run: overrides the batch seed)
  int jobs = 0;           ///< scenario-runner concurrency cap; 0 = batch/hardware
  std::string connect;    ///< host:port of a running exadigit_server
  std::string request_id = "cli";  ///< request id echoed in server envelopes
  std::string format = kExadigitCsvFormat;  ///< record: output dataset format
  double chunk_seconds = 0.0;  ///< record: v2 chunk window (exadigit-bin only)
};

Args parse_args(int argc, char** argv) {
  Args args;
  ArgParser parser;
  parser.add_double("--hours", &args.hours)
      .add_uint64("--seed", &args.seed)
      .track(&args.seed_set)
      .add_double("--power-mw", &args.power_mw)
      .add_double("--wetbulb", &args.wetbulb_c)
      .add_string("--config", &args.config_path)
      .add_string("--out", &args.out_dir)
      .add_int("--jobs", &args.jobs)
      .add_string("--connect", &args.connect)
      .add_string("--id", &args.request_id)
      .add_string("--format", &args.format)
      .add_double("--chunk-seconds", &args.chunk_seconds)
      .add_switch("--no-cooling", &args.cooling, false);
  args.positional = parser.parse(argc, argv, 2);
  return args;
}

SystemConfig load_config(const Args& args) {
  if (args.config_path.empty()) return frontier_system_config();
  return system_config_from_json(Json::load_file(args.config_path));
}

/// Prints and exports a completed batch — shared verbatim by `run` (local
/// execution) and `submit` (server execution) so their outputs are
/// bit-identical. Returns the number of failed scenarios.
int report_and_export(const std::vector<ScenarioResult>& results,
                      const std::string& out_dir) {
  int failed = 0;
  int exported = 0;
  for (const ScenarioResult& r : results) {
    std::printf("\n=== %s (%s) — %s ===\n", r.name.c_str(), r.type.c_str(),
                to_string(r.status));
    if (r.status == ScenarioResult::Status::kFailed) {
      ++failed;
      std::printf("error: %s\n", r.error.c_str());
      continue;
    }
    if (!r.text.empty()) std::printf("%s\n", r.text.c_str());
    std::printf("%s", r.summary_table().c_str());
    r.export_files(out_dir);
    ++exported;
  }

  batch_summary_csv(results).save(out_dir + "/batch_summary.csv");
  Json batch_json{Json::Array{}};
  for (const ScenarioResult& r : results) batch_json.push_back(r.to_json());
  batch_json.save_file(out_dir + "/batch_summary.json");

  std::printf("\n%s", batch_summary_table(results).c_str());
  std::printf("exported %d of %zu scenario(s) to %s\n", exported, results.size(),
              out_dir.c_str());
  return failed;
}

/// The declarative path: execute a batch file through the runner.
int cmd_run(const Args& args) {
  if (args.positional.empty()) throw ConfigError("run requires a scenarios.json path");
  const ScenarioBatch batch = ScenarioBatch::load_file(args.positional[0]);
  // Validate every type up front so a typo fails before hours of work.
  for (const ScenarioSpec& spec : batch.scenarios) {
    ScenarioRegistry::instance().require_type(spec.type);
  }
  // The batch summary must be writable even when every scenario fails
  // (export_files only creates the directory for successful scenarios).
  std::filesystem::create_directories(args.out_dir);

  ScenarioRunner::Options options;
  options.jobs = args.jobs > 0 ? args.jobs : batch.jobs;
  options.batch_seed = args.seed_set ? args.seed : batch.seed;
  options.on_status = [](std::size_t index, const ScenarioSpec& spec,
                         ScenarioResult::Status status) {
    std::printf("[%zu] %-28s %s\n", index, spec.name.c_str(), to_string(status));
  };
  const std::vector<ScenarioResult> results = ScenarioRunner(options).run(batch.scenarios);
  return report_and_export(results, args.out_dir) == 0 ? 0 : 1;
}

int cmd_types(const Args&) {
  for (const std::string& type : ScenarioRegistry::instance().types()) {
    std::printf("%s\n", type.c_str());
  }
  return 0;
}

/// One ad-hoc scenario through the same registry path as `run`.
int run_single(ScenarioSpec spec) {
  const ScenarioResult r = ScenarioRegistry::instance().run(spec);
  if (!r.text.empty()) std::printf("%s\n", r.text.c_str());
  std::printf("%s", r.summary_table().c_str());
  return 0;
}

int cmd_simulate(const Args& args) {
  const SystemConfig config = load_config(args);
  DigitalTwinOptions options;
  options.enable_cooling = args.cooling;
  DigitalTwin twin(config, options);
  const double duration = args.hours * units::kSecondsPerHour;
  if (args.cooling) twin.set_wetbulb_series(synthetic_wetbulb_series(duration, args.seed + 1));
  WorkloadGenerator gen(config.workload, config, Rng(args.seed));
  twin.submit_all(gen.generate(0.0, duration));
  twin.run_until(duration);
  std::printf("%s\n", twin.report().to_string().c_str());
  DashboardOptions dash;
  dash.use_color = false;
  std::printf("%s", render_dashboard(twin, dash).c_str());
  return 0;
}

int cmd_record(const Args& args) {
  if (args.positional.empty()) throw ConfigError("record requires an output directory");
  const SystemConfig config = load_config(args);
  const double duration = args.hours * units::kSecondsPerHour;
  WorkloadGenerator gen(config.workload, config, Rng(args.seed));
  SyntheticPhysicalTwin physical(config, PhysicalTwinOptions{});
  const TelemetryDataset dataset = physical.record(
      gen.generate(0.0, duration), synthetic_wetbulb_series(duration, args.seed + 1),
      duration);
  if (args.format == kExadigitBinFormat) {
    if (args.chunk_seconds > 0.0) {
      save_dataset_binary_chunked(dataset, args.positional[0], args.chunk_seconds);
    } else {
      save_dataset_binary(dataset, args.positional[0]);
    }
  } else if (args.format == kExadigitCsvFormat) {
    require(args.chunk_seconds == 0.0, "--chunk-seconds requires --format exadigit-bin");
    save_dataset(dataset, args.positional[0]);
  } else {
    throw ConfigError("record --format must be \"" + std::string(kExadigitCsvFormat) +
                      "\" or \"" + kExadigitBinFormat + "\"");
  }
  std::printf("recorded %zu jobs over %.1f h into %s (%s)\n", dataset.jobs.size(), args.hours,
              args.positional[0].c_str(), args.format.c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.positional.empty()) throw ConfigError("replay requires a dataset directory");
  const SystemConfig config = load_config(args);
  const TelemetryDataset dataset = load_dataset(args.positional[0]);
  const PowerReplayResult r = replay_power(config, dataset, args.cooling);
  std::printf("replayed %zu jobs over %.1f h\n", dataset.jobs.size(),
              dataset.duration_s / 3600.0);
  std::printf("power: RMSE %.3f MW | MAE %.3f MW | MAPE %.2f %% | r %.4f\n",
              r.power_score.rmse, r.power_score.mae, r.power_score.mape_pct,
              r.power_score.pearson);
  if (args.cooling && !cooling_validation_scores(config, dataset)) {
    std::printf("cooling: not scored; the cooling score needs more than 1 h of telemetry "
                "(the plant's first hour from rest is discarded), and this dataset spans "
                "%.2f h\n",
                dataset.duration_s / 3600.0);
  } else if (args.cooling) {
    const CoolingValidationResult cv = validate_cooling(config, dataset);
    std::printf("cooling: flow RMSE %.1f gpm | return RMSE %.2f C | PUE within %.2f %%\n",
                cv.cdu_pri_flow.rmse, cv.cdu_return_temp.rmse,
                100.0 * cv.pue_max_rel_error);
  }
  std::printf("%s\n", r.report.to_string().c_str());
  return 0;
}

int cmd_whatif(const Args& args) {
  if (args.positional.empty()) throw ConfigError("whatif requires a scenario name");
  const std::string& scenario = args.positional[0];
  ScenarioSpec spec;
  if (scenario == "smart_rectifiers") {
    spec.type = "whatif_smart_rectifiers";
  } else if (scenario == "dc380") {
    spec.type = "whatif_dc380";
  } else {
    throw ConfigError("unknown scenario: " + scenario +
                      " (expected smart_rectifiers or dc380)");
  }
  spec.name = scenario;
  spec.config_path = args.config_path;
  spec.horizon_hours = args.hours;
  spec.seed = args.seed;
  return run_single(std::move(spec));
}

int cmd_optimize(const Args& args) {
  ScenarioSpec spec;
  spec.type = "optimize_setpoint";
  spec.name = "optimize_setpoint";
  spec.config_path = args.config_path;
  Json params;
  params["power_mw"] = args.power_mw;
  params["wetbulb_c"] = args.wetbulb_c;
  spec.params = std::move(params);
  std::printf("autonomous basin-setpoint optimization @ %.1f MW, wet bulb %.1f C\n",
              args.power_mw, args.wetbulb_c);
  return run_single(std::move(spec));
}

int cmd_scene(const Args& args) {
  if (args.positional.empty()) throw ConfigError("scene requires an output path");
  const SystemConfig config = load_config(args);
  const SceneGraph scene = build_scene(config);
  export_scene(scene, args.positional[0]);
  std::printf("wrote %zu assets to %s\n", scene.assets.size(), args.positional[0].c_str());
  return 0;
}

int cmd_config(const Args& args) {
  if (args.positional.empty()) throw ConfigError("config requires an output path");
  system_config_to_json(frontier_system_config()).save_file(args.positional[0]);
  std::printf("wrote the Frontier descriptor to %s\n", args.positional[0].c_str());
  return 0;
}

/// Connects to the `--connect host:port` of a running exadigit_server.
TcpSocket connect_to_server(const Args& args) {
  require(!args.connect.empty(), "this command requires --connect host:port");
  const std::size_t colon = args.connect.rfind(':');
  require(colon != std::string::npos && colon + 1 < args.connect.size(),
          "--connect expects host:port");
  const std::string host = args.connect.substr(0, colon);
  // Locale-independent parse; also rejects trailing junk ("8080x") that
  // std::stol silently accepted.
  int port = 0;
  require(try_parse_int(args.connect.substr(colon + 1), &port),
          "--connect expects a numeric port");
  require(port > 0 && port <= 65535, "--connect port must be in [1, 65535]");
  TcpSocket socket = TcpSocket::connect(host, static_cast<std::uint16_t>(port));
  socket.set_nodelay(true);
  return socket;
}

/// Thin-client `run`: the batch executes inside the warm server, results
/// stream back as scenarios finish, and the exports match `run` exactly.
int cmd_submit(const Args& args) {
  if (args.positional.empty()) throw ConfigError("submit requires a scenarios.json path");
  TcpSocket socket = connect_to_server(args);

  Json request;
  request["type"] = "run";
  request["id"] = args.request_id;
  request["batch"] = Json::load_file(args.positional[0]);
  send_frame(socket, request.dump());

  std::map<std::size_t, ScenarioResult> by_index;
  std::map<std::size_t, bool> cached;
  std::size_t expected = 0;
  bool batch_done = false;
  std::string payload;
  while (!batch_done && recv_frame(socket, &payload)) {
    const Json envelope = Json::parse(payload);
    const std::string type = envelope.string_or("type", "");
    if (type == "error") {
      throw Error("server error: " + envelope.string_or("message", "(no message)"));
    } else if (type == "accepted") {
      expected = static_cast<std::size_t>(envelope.int_or("scenarios", 0));
    } else if (type == "status") {
      std::printf("[%lld] %-28s %s\n",
                  static_cast<long long>(envelope.int_or("index", 0)),
                  envelope.string_or("name", "").c_str(),
                  envelope.string_or("status", "").c_str());
    } else if (type == "result") {
      const auto index = static_cast<std::size_t>(envelope.int_or("index", 0));
      ScenarioResult result = ScenarioResult::from_wire_json(envelope.at("result"));
      const bool was_cached = envelope.bool_or("cached", false);
      std::printf("[%zu] %-28s %s%s\n", index, result.name.c_str(),
                  to_string(result.status), was_cached ? " (cached)" : "");
      cached[index] = was_cached;
      by_index.emplace(index, std::move(result));
    } else if (type == "batch_done") {
      batch_done = true;
    }
  }
  require(batch_done, "connection closed before the batch completed");
  require(by_index.size() == expected, "server sent an incomplete result set");

  std::vector<ScenarioResult> results;
  results.reserve(expected);
  for (std::size_t i = 0; i < expected; ++i) {
    const auto it = by_index.find(i);
    require(it != by_index.end(), "server skipped a scenario index");
    results.push_back(std::move(it->second));
  }
  std::filesystem::create_directories(args.out_dir);
  return report_and_export(results, args.out_dir) == 0 ? 0 : 1;
}

/// Prints the server's live statistics document.
int cmd_server_stats(const Args& args) {
  TcpSocket socket = connect_to_server(args);
  Json request;
  request["type"] = "stats";
  send_frame(socket, request.dump());
  std::string payload;
  require(recv_frame(socket, &payload), "connection closed before the stats reply");
  std::printf("%s\n", Json::parse(payload).dump(2).c_str());
  return 0;
}

void usage() {
  std::printf(
      "exadigit_cli — console interface to the ExaDigiT digital twin\n\n"
      "commands:\n"
      "  run       <scenarios.json> [--jobs N] [--out DIR] [--seed S]\n"
      "  simulate  [--hours H] [--seed S] [--config f.json] [--no-cooling]\n"
      "  record    <dir> [--hours H] [--seed S] [--format exadigit-csv|exadigit-bin]\n"
      "            [--chunk-seconds W]  (v2 chunked layout, exadigit-bin only)\n"
      "  replay    <dir> [--config f.json] [--no-cooling]\n"
      "  whatif    <smart_rectifiers|dc380> [--hours H]\n"
      "  optimize  [--power-mw P] [--wetbulb C]\n"
      "  scene     <out.json>\n"
      "  config    <out.json>\n"
      "  types\n"
      "  submit    <scenarios.json> --connect host:port [--out DIR] [--id NAME]\n"
      "  stats     --connect host:port\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (command == "run") return cmd_run(args);
    if (command == "types") return cmd_types(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "record") return cmd_record(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "whatif") return cmd_whatif(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "scene") return cmd_scene(args);
    if (command == "config") return cmd_config(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "stats") return cmd_server_stats(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
