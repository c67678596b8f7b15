#pragma once

/// @file server.hpp
/// The scenario server's transport: a single-threaded poll(2) event loop.
///
/// One thread multiplexes the listener, a self-pipe, and every client
/// connection (the mosquitto-broker shape): non-blocking reads feed each
/// connection's FrameDecoder, complete payloads dispatch into the
/// ScenarioService, and reply envelopes queue into per-connection outboxes
/// flushed as sockets accept them. Worker threads never touch a socket —
/// they signal the self-pipe and the loop picks completed envelopes up via
/// drain_completions, so all transport state is single-threaded by
/// construction.
///
/// Shutdown is graceful three ways: stop() (async-signal-safe — the
/// SIGINT/SIGTERM handlers in exadigit_server call it), a client's
/// {"type": "shutdown"} request, or destroying the server. The loop then
/// stops accepting, lets every in-flight scenario finish, flushes all
/// outboxes, and returns. An individual client vanishing mid-batch only
/// drops that client's envelopes; its scenarios still complete and warm
/// the cache.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/socket.hpp"
#include "json/json.hpp"
#include "server/framing.hpp"
#include "server/scenario_service.hpp"

namespace exadigit {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  int jobs = 0;            ///< executor width; 0 = hardware concurrency
  std::size_t cache_entries = 256;
  /// Loaded telemetry datasets stay resident up to this many MiB
  /// (0 = unlimited); see ScenarioService::Options::dataset_resident_mb.
  double dataset_resident_mb = 512.0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class ScenarioServer {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// Throws SocketError when the address is unavailable.
  explicit ScenarioServer(ServerOptions options = {});
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// The bound port — the kernel-assigned one when options.port was 0.
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Runs the event loop until a graceful shutdown completes. Blocking;
  /// call from a dedicated thread when embedding (tests do).
  void run();

  /// Requests a graceful shutdown. Async-signal-safe (an atomic store and a
  /// self-pipe write) and callable from any thread.
  void stop();

  /// Live service statistics (the {"type": "stats"} document).
  [[nodiscard]] Json stats_json() const { return service_.stats_json(); }

 private:
  struct Connection {
    std::uint64_t id = 0;
    TcpSocket socket;
    FrameDecoder decoder;
    std::string outbox;
    std::size_t outbox_offset = 0;
    bool close_after_flush = false;  ///< error reply sent, stream unusable
    bool dead = false;

    explicit Connection(std::size_t max_frame_bytes) : decoder(max_frame_bytes) {}
    [[nodiscard]] bool wants_write() const { return outbox_offset < outbox.size(); }
  };

  /// Self-pipe as RAII so declaration order fixes teardown order: declared
  /// before service_, it is destroyed after the workers (which write to it
  /// from the wakeup hook) have joined.
  struct WakePipe {
    int read_fd = -1;
    int write_fd = -1;
    WakePipe();
    ~WakePipe();
    WakePipe(const WakePipe&) = delete;
    WakePipe& operator=(const WakePipe&) = delete;
  };

  void accept_pending();
  void handle_readable(Connection& conn);
  /// Appends one frame to the outbox and flushes opportunistically.
  void queue_frame(Connection& conn, std::string_view payload);
  void flush(Connection& conn);
  /// Moves completed service envelopes into their connections' outboxes;
  /// envelopes for vanished clients are dropped.
  void pump_completions();
  void sweep_dead_connections();
  void drain_wake_pipe();

  ServerOptions options_;
  TcpListener listener_;
  WakePipe wake_;  ///< must precede service_: workers signal it until joined
  ScenarioService service_;
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 1;
};

}  // namespace exadigit
