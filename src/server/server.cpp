#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace exadigit {

namespace {

void set_fd_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw SocketError(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }
}

}  // namespace

ScenarioServer::WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw SocketError(std::string("pipe: ") + std::strerror(errno));
  }
  read_fd = fds[0];
  write_fd = fds[1];
  set_fd_nonblocking(read_fd);
  set_fd_nonblocking(write_fd);
}

ScenarioServer::WakePipe::~WakePipe() {
  // Declared before service_, so this runs after the workers have joined
  // and nothing can invoke the wakeup anymore.
  if (read_fd >= 0) ::close(read_fd);
  if (write_fd >= 0) ::close(write_fd);
}

ScenarioServer::ScenarioServer(ServerOptions options)
    : options_(std::move(options)),
      listener_(options_.host, options_.port),
      service_(ScenarioService::Options{options_.jobs, options_.cache_entries,
                                        options_.dataset_resident_mb}) {
  listener_.set_nonblocking(true);
  service_.set_wakeup([fd = wake_.write_fd] {
    const char byte = 1;
    // EAGAIN means a wakeup is already pending — exactly as good.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  });
}

ScenarioServer::~ScenarioServer() = default;

void ScenarioServer::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_.write_fd, &byte, 1);
}

void ScenarioServer::run() {
  // The final-flush phase is bounded: a client that stopped reading (full
  // socket buffer) would otherwise keep wants_write() true forever and pin
  // the process at shutdown. No flush progress for this long drops the
  // stalled connections instead.
  constexpr std::chrono::seconds kFlushStallLimit{5};
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  std::size_t last_unflushed = 0;
  Clock::time_point flush_stalled_since{};

  while (true) {
    if (!draining &&
        (stop_requested_.load(std::memory_order_relaxed) ||
         service_.shutdown_requested())) {
      draining = true;
      listener_.close();  // no new clients; existing work finishes
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_.read_fd, POLLIN, 0});
    if (!draining) fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    const std::size_t first_connection = fds.size();
    // accept_pending() below may grow connections_; only the first `polled`
    // entries have a pollfd this round.
    const std::size_t polled = connections_.size();
    for (const auto& conn : connections_) {
      short events = POLLIN;
      if (conn->wants_write()) events |= POLLOUT;
      fds.push_back(pollfd{conn->socket.fd(), events, 0});
    }

    // While draining, poll with a timeout so in-flight completion is
    // re-checked even if no fd fires (the self-pipe normally wakes us).
    const int timeout_ms = draining ? 50 : -1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw SocketError(std::string("poll: ") + std::strerror(errno));
    }

    if ((fds[0].revents & POLLIN) != 0) drain_wake_pipe();
    if (!draining && (fds[1].revents & POLLIN) != 0) accept_pending();

    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *connections_[i];
      const short revents = fds[first_connection + i].revents;
      if (revents == 0 || conn.dead) continue;
      if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0) handle_readable(conn);
      if (!conn.dead && (revents & POLLOUT) != 0) flush(conn);
    }

    pump_completions();
    sweep_dead_connections();

    if (draining && service_.in_flight() == 0) {
      pump_completions();  // envelopes queued before in-flight hit zero
      bool pending = false;
      std::size_t unflushed = 0;
      for (const auto& conn : connections_) {
        if (!conn->dead) flush(*conn);
        if (!conn->dead && conn->wants_write()) {
          pending = true;
          unflushed += conn->outbox.size() - conn->outbox_offset;
        }
      }
      if (!pending) break;
      const Clock::time_point now = Clock::now();
      if (flush_stalled_since == Clock::time_point{} ||
          unflushed < last_unflushed) {
        flush_stalled_since = now;  // first pass, or bytes moved: progress
        last_unflushed = unflushed;
      } else if (now - flush_stalled_since >= kFlushStallLimit) {
        break;  // stalled clients are dropped with their unflushed bytes
      }
    }
  }
  connections_.clear();
}

void ScenarioServer::accept_pending() {
  while (true) {
    TcpSocket socket = listener_.accept();
    if (!socket.valid()) return;
    socket.set_nonblocking(true);
    socket.set_nodelay(true);
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->id = next_connection_id_++;
    conn->socket = std::move(socket);
    connections_.push_back(std::move(conn));
  }
}

void ScenarioServer::handle_readable(Connection& conn) {
  char buffer[65536];
  try {
    while (!conn.dead && !conn.close_after_flush) {
      std::size_t n = 0;
      const IoStatus status = conn.socket.read_some(buffer, sizeof(buffer), &n);
      if (status == IoStatus::kWouldBlock) break;
      if (status == IoStatus::kClosed) {
        conn.dead = true;
        break;
      }
      conn.decoder.feed(buffer, n);
      FrameDecoder::Frame frame;
      while (conn.decoder.next(&frame)) {
        switch (frame.event) {
          case FrameDecoder::Event::kPayload:
            for (const Json& envelope :
                 service_.handle_payload(conn.id, frame.payload)) {
              queue_frame(conn, envelope.dump());
            }
            break;
          case FrameDecoder::Event::kBadMagic:
            // Frame boundaries are gone; reply then close (see framing.hpp).
            // The flag must be set before queueing: queue_frame flushes, and
            // a fully drained outbox closes immediately.
            conn.close_after_flush = true;
            queue_frame(conn, ScenarioService::error_envelope(
                                  "frame stream desynchronized: bad magic")
                                  .dump());
            break;
          case FrameDecoder::Event::kOversized:
            queue_frame(conn,
                        ScenarioService::error_envelope(
                            "frame payload of " +
                            std::to_string(frame.declared_size) +
                            " bytes exceeds the " +
                            std::to_string(options_.max_frame_bytes) +
                            "-byte limit; frame discarded")
                            .dump());
            break;
        }
      }
    }
  } catch (const SocketError&) {
    conn.dead = true;
  }
}

void ScenarioServer::queue_frame(Connection& conn, std::string_view payload) {
  if (conn.dead) return;
  conn.outbox.append(encode_frame(payload));
  flush(conn);  // opportunistic: most replies fit the socket buffer
}

void ScenarioServer::flush(Connection& conn) {
  try {
    while (conn.wants_write()) {
      std::size_t n = 0;
      const IoStatus status =
          conn.socket.write_some(conn.outbox.data() + conn.outbox_offset,
                                 conn.outbox.size() - conn.outbox_offset, &n);
      if (status == IoStatus::kWouldBlock) return;
      if (status == IoStatus::kClosed) {
        conn.dead = true;
        return;
      }
      conn.outbox_offset += n;
    }
  } catch (const SocketError&) {
    conn.dead = true;
    return;
  }
  conn.outbox.clear();
  conn.outbox_offset = 0;
  if (conn.close_after_flush) conn.dead = true;
}

void ScenarioServer::pump_completions() {
  for (ScenarioService::Completion& completion : service_.drain_completions()) {
    Connection* target = nullptr;
    for (const auto& conn : connections_) {
      if (conn->id == completion.client && !conn->dead) {
        target = conn.get();
        break;
      }
    }
    if (target == nullptr) continue;  // client vanished; result stays cached
    queue_frame(*target, completion.envelope.dump());
  }
}

void ScenarioServer::sweep_dead_connections() {
  for (std::size_t i = 0; i < connections_.size();) {
    if (connections_[i]->dead) {
      service_.forget_client(connections_[i]->id);
      connections_.erase(connections_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void ScenarioServer::drain_wake_pipe() {
  char buffer[256];
  while (::read(wake_.read_fd, buffer, sizeof(buffer)) > 0) {
  }
}

}  // namespace exadigit
