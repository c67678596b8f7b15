/// perfbench: the repository benchmark program.
///
///   perfbench --workload <coupled_day|ooc_replay|server_mix> --seed <n>
///             --seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <file>]
///
/// Prints human-readable lines, then as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
/// An untraced run reports the end-to-end metrics, a traced run the
/// per-layer metrics (and writes its spans to --trace-out). Exits 1 without
/// a result line when the run cannot complete.

#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

RunOptions parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::runtime_error("every flag takes one value");
  auto get = [&args](const std::string& key) -> std::string {
    const auto it = args.find(key);
    if (it == args.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  };
  RunOptions o;
  o.workload = get("workload");
  if (!exadigit::try_parse_uint64(get("seed"), &o.seed)) {
    throw std::runtime_error("--seed must be a non-negative integer");
  }
  o.seconds = exadigit::parse_double(get("seconds"), "--seconds");
  o.trace = get("trace") == "1";
  o.work_dir = get("work-dir");
  o.trace_path = args.count("trace-out") != 0 ? args["trace-out"] : "";
  // A traced run reports no setup_s, so it sets up once.
  o.setup_reps = o.trace ? 1 : 5;
  if (o.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const RunOptions options = parse_args(argc, argv);
    std::filesystem::create_directories(options.work_dir);
    RunResult result;
    if (options.workload == "coupled_day") {
      result = perfbench::run_coupled_day(options);
    } else if (options.workload == "ooc_replay") {
      result = perfbench::run_ooc_replay(options);
    } else if (options.workload == "server_mix") {
      result = perfbench::run_server_mix(options);
    } else {
      throw std::runtime_error("unknown workload " + options.workload);
    }
    std::filesystem::remove_all(options.work_dir);
    std::printf("%s\n", result.json_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
