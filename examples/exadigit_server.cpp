/// exadigit_server — the long-lived scenario service (paper Fig. 6: one
/// resident twin serving many experiments).
///
///   exadigit_server [--host H] [--port P] [--jobs N] [--cache-entries N]
///                   [--dataset-resident-mb M] [--max-frame-mb N]
///
/// Accepts framed JSON requests over TCP (framing and envelopes documented
/// in src/server/framing.hpp and src/server/scenario_service.hpp) and keeps
/// twin state warm across requests: loaded telemetry datasets stay resident
/// and finished scenarios are answered from a content-addressed result
/// cache. `exadigit_cli submit --connect` is the matching client.
///
/// --port 0 (the default) binds an ephemeral port; the banner line prints
/// the actual one. SIGINT/SIGTERM drain in-flight scenarios, flush every
/// reply, and exit 0.

#include <csignal>
#include <cstdio>

#include "common/arg_parser.hpp"
#include "server/server.hpp"

using namespace exadigit;

namespace {

ScenarioServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int jobs = 0;
  int cache_entries = 256;
  double dataset_resident_mb = 512.0;
  int max_frame_mb = 64;
  ArgParser parser;
  parser.add_string("--host", &host)
      .add_int("--port", &port)
      .add_int("--jobs", &jobs)
      .add_int("--cache-entries", &cache_entries)
      .add_double("--dataset-resident-mb", &dataset_resident_mb)
      .add_int("--max-frame-mb", &max_frame_mb);
  try {
    require(parser.parse(argc, argv, 1).empty(),
            "exadigit_server takes no positional arguments");
    require(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
    require(cache_entries >= 0, "--cache-entries must be >= 0");
    require(dataset_resident_mb >= 0.0, "--dataset-resident-mb must be >= 0");
    require(max_frame_mb > 0, "--max-frame-mb must be positive");

    ServerOptions options;
    options.host = host;
    options.port = static_cast<std::uint16_t>(port);
    options.jobs = jobs;
    options.cache_entries = static_cast<std::size_t>(cache_entries);
    options.dataset_resident_mb = dataset_resident_mb;
    options.max_frame_bytes = static_cast<std::size_t>(max_frame_mb) << 20;

    ScenarioServer server(options);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Flushed immediately: launch scripts parse this line for the port.
    std::printf("exadigit_server listening on %s:%u (jobs=%d, cache=%d)\n",
                host.c_str(), server.port(), jobs, cache_entries);
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
    std::printf("exadigit_server: drained and stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
