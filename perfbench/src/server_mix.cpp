/// server_mix: an in-process ScenarioServer on loopback (poll thread plus
/// one executor worker) driven by one client connection in a closed loop, so
/// at most three threads run and co-tenant load on a shared host has cores to
/// spare. Each request is a one-scenario `run`; in every ten requests, at a
/// seeded slot:
///   - nine name a spec from a small hot set: cache hits, the read path;
///   - one is a short `simulate` spec with a fresh seed: a cache miss, the
///     write path (execute, serialize, insert).
/// One operation is one round trip: send the request, read frames until
/// batch_done.
///
/// Every cached result frame must be byte-identical to the first cached
/// frame for its spec (recorded at set-up), and every miss result must equal
/// ScenarioRegistry::run(spec).to_wire_json() at the same seed; misses are
/// re-run locally after the timed phase. A miss keeps only its scenario seed
/// and a hash of its reply until then, so the buffer adds nothing that grows
/// with throughput to the timed phase's peak RSS.
///
/// Times are reported at the fast end (the fastest round trip, the fastest
/// miss, the fastest 50-request window): co-tenant load on a shared host only
/// ever adds time and comes and goes over seconds, so a run's median moves
/// with it. Every window aligned to the ten-request pattern holds exactly five
/// misses, so windows differ in how busy the host was, not in their mix.
///
/// The hot set and the horizon are bench_server_roundtrip's batch.

#include <cstdio>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "common/stable_hash.hpp"
#include "inputs.hpp"
#include "scenario/scenario_registry.hpp"
#include "server/framing.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace exadigit;

constexpr int kClients = 1;
/// The post-run miss check runs alone, one thread per core.
constexpr std::size_t kVerifyThreads = 4;
/// Buffer room per client: about 1.8x the fastest rate seen (~6.8k requests
/// per second over a run on a 4-core VM). A faster run regrows the buffers.
constexpr double kMaxOpsPerClientPerS = 12000.0;
/// One miss in every kMissPeriod requests.
constexpr std::int64_t kMissPeriod = 10;
/// req_per_s: kWindowOps requests over the fastest window of kWindowOps
/// consecutive requests that starts on a kMissPeriod boundary.
constexpr std::size_t kWindowOps = 50;
constexpr double kMissHorizonS = kServerHorizonHours * 3600.0;
/// ~250k round trips in a 30 s run: p99 has thousands of samples beyond it.
constexpr double kTailPct = 99.0;

/// The real server, run()ning on its own thread, stopped on destruction.
class LiveServer {
 public:
  LiveServer() : server_(options()), thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  static ServerOptions options() {
    ServerOptions o;
    o.jobs = 1;
    return o;
  }
  ScenarioServer server_;
  std::thread thread_;
};

/// prefix + n, built by appending (GCC 12 warns falsely on "x" + to_string).
std::string label(const char* prefix, std::uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

TcpSocket connect_to(std::uint16_t port) {
  TcpSocket socket = TcpSocket::connect("127.0.0.1", port);
  socket.set_nodelay(true);
  return socket;
}

std::string run_request(const std::string& id, const Json& spec) {
  Json batch;
  batch["scenarios"].push_back(spec);
  Json request;
  request["type"] = "run";
  request["id"] = id;
  request["batch"] = std::move(batch);
  return request.dump();
}

struct Reply {
  bool ok = false;        ///< batch_done with one done, none failed
  bool cached = false;
  std::string result;     ///< the raw result frame
  std::size_t bytes = 0;  ///< every reply frame of the round trip
};

/// One round trip: send `payload`, read and parse frames until batch_done.
Reply round_trip(TcpSocket& socket, const std::string& payload, SpanLog* log) {
  send_frame(socket, payload);
  Reply reply;
  std::string frame;
  while (recv_frame(socket, &frame)) {
    reply.bytes += frame.size();
    Json envelope;
    {
      ScopedSpan span(log, "json.parse");
      envelope = Json::parse(frame);
    }
    const std::string& type = envelope.at("type").as_string();
    if (type == "result") {
      reply.cached = envelope.at("cached").as_bool();
      reply.result = std::move(frame);
    } else if (type == "batch_done") {
      reply.ok = envelope.at("done").as_int() == 1 && envelope.at("failed").as_int() == 0;
      break;
    } else if (type == "error") {
      break;
    }
  }
  return reply;
}

/// The wire JSON of a result frame's "result" member.
std::string result_wire(const std::string& frame) { return Json::parse(frame).at("result").dump(); }

Json server_stats(std::uint16_t port) {
  TcpSocket socket = connect_to(port);
  send_frame(socket, R"({"type": "stats"})");
  std::string payload;
  if (!recv_frame(socket, &payload)) return Json();
  return Json::parse(payload).at("cache");
}

/// The hot set and its reference result frames.
struct HotSet {
  std::vector<Json> specs;
  std::vector<std::string> requests;
  std::vector<std::string> frames;  ///< first cached result frame per spec
};

/// Issues each hot spec twice (execute, then the first cached reply) and
/// checks the executed result against a local registry run.
bool warm(std::uint16_t port, std::uint64_t seed, HotSet* hot) {
  hot->specs = make_hot_specs(seed);
  hot->requests.clear();
  hot->frames.clear();
  TcpSocket socket = connect_to(port);
  bool ok = true;
  for (std::size_t i = 0; i < hot->specs.size(); ++i) {
    hot->requests.push_back(run_request(label("h", i), hot->specs[i]));
    const Reply first = round_trip(socket, hot->requests[i], nullptr);
    const Reply cached = round_trip(socket, hot->requests[i], nullptr);
    const std::string local =
        ScenarioRegistry::instance().run(ScenarioSpec::from_json(hot->specs[i])).to_wire_json().dump();
    ok = ok && first.ok && !first.cached && cached.ok && cached.cached &&
         same_bytes(result_wire(first.result), local) &&
         same_bytes(result_wire(cached.result), local);
    hot->frames.push_back(cached.result);
  }
  return ok;
}

/// A miss the server executed, checked after the timed phase.
struct MissRecord {
  std::uint64_t scenario_seed = 0;  ///< make_miss_spec's argument
  std::uint64_t wire_hash = 0;      ///< fnv1a64 of the reply's result_wire
};

/// What one client thread measured. With a span log, odd requests are
/// traced (their times are in the log's op.request spans) and op_ms holds the
/// untraced even ones, so both halves see the same machine conditions.
struct ClientRecord {
  std::vector<double> op_ms;
  std::vector<double> miss_ms;
  std::vector<double> reply_bytes;  ///< traced runs only
  std::vector<MissRecord> misses;
  std::vector<double> done_ms;  ///< each round trip's completion, from the phase start
  long long attempted = 0;
  long long failed = 0;
  std::unique_ptr<SpanLog> log;

  /// Allocates and touches room for a run of `seconds`, so that the buffers
  /// are resident before the peak-RSS reset and do not grow with throughput
  /// while the clients run.
  void reserve(double seconds, bool traced) {
    const auto ops = static_cast<std::size_t>(seconds * kMaxOpsPerClientPerS);
    pretouch(op_ms, ops);
    pretouch(done_ms, ops);
    pretouch(miss_ms, ops / 4);
    pretouch(misses, ops / 4);
    if (traced) pretouch(reply_bytes, ops);
  }

 private:
  template <typename T>
  static void pretouch(std::vector<T>& v, std::size_t n) {
    v.assign(n, T{});
    v.clear();
  }
};

/// Closed loop: the next request leaves only after the previous reply.
void client_requests(std::uint16_t port, std::uint64_t seed, int client, std::uint64_t round,
                     const HotSet& hot, Clock::time_point start, Clock::time_point deadline,
                     ClientRecord* out) {
  TcpSocket socket = connect_to(port);
  Rng rng = Rng(seed).fork(label("client-", client) + label("-", round));
  std::int64_t k = 0;
  std::int64_t miss_slot = 0;
  while (Clock::now() < deadline) {
    SpanLog* log = k % 2 == 1 ? out->log.get() : nullptr;
    if (k % kMissPeriod == 0) miss_slot = rng.uniform_int(0, kMissPeriod - 1);
    const bool hit = k % kMissPeriod != miss_slot;
    const auto index =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(hot.requests.size()) - 1));
    std::uint64_t miss_seed = 0;
    std::string miss_request;
    if (!hit) {
      miss_seed = rng.engine()();
      miss_request = run_request(label("m", client), make_miss_spec(miss_seed));
    }
    if (log != nullptr) log->begin_request(k / 2);
    ++k;
    const Clock::time_point t0 = Clock::now();
    Reply reply;
    {
      ScopedSpan span(log, "op.request");
      reply = round_trip(socket, hit ? hot.requests[index] : miss_request, log);
    }
    const double ms = ms_since(t0);
    out->done_ms.push_back(ms_since(start));
    if (log == nullptr) out->op_ms.push_back(ms);
    if (out->log != nullptr) out->reply_bytes.push_back(static_cast<double>(reply.bytes));
    if (hit) {
      ++out->attempted;
      if (!(reply.ok && reply.cached && same_bytes(reply.result, hot.frames[index]))) {
        ++out->failed;
      }
    } else {
      out->miss_ms.push_back(ms);
      if (reply.ok && !reply.cached) {
        out->misses.push_back(MissRecord{miss_seed, fnv1a64(result_wire(reply.result))});
      } else {
        ++out->attempted;
        ++out->failed;
      }
    }
  }
}

void client_loop(std::uint16_t port, std::uint64_t seed, int client, std::uint64_t round,
                 const HotSet& hot, Clock::time_point start, Clock::time_point deadline,
                 ClientRecord* out) {
  // An exception must not escape the thread: it counts as a failed request.
  try {
    client_requests(port, seed, client, round, hot, start, deadline, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client %d: %s\n", client, e.what());
    ++out->attempted;
    ++out->failed;
  }
}

/// One record per client for a run of `seconds`, buffers already resident;
/// traced records get span logs on threads 1..kClients.
std::vector<ClientRecord> make_records(double seconds, bool traced) {
  std::vector<ClientRecord> records(kClients);
  for (int c = 0; c < kClients; ++c) {
    ClientRecord& record = records[static_cast<std::size_t>(c)];
    record.reserve(seconds, traced);
    if (traced) record.log = std::make_unique<SpanLog>(c + 1);
  }
  return records;
}

/// Runs the clients for `seconds`; returns the phase's wall seconds.
double drive(std::uint16_t port, std::uint64_t seed, std::uint64_t round, const HotSet& hot,
             double seconds, std::vector<ClientRecord>* records) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientRecord& record = (*records)[static_cast<std::size_t>(c)];
    clients.emplace_back(client_loop, port, seed, c, round, std::cref(hot), start, deadline,
                         &record);
  }
  for (std::thread& t : clients) t.join();
  return ms_since(start) / 1000.0;
}

/// Re-runs every miss locally on kVerifyThreads threads; each must equal the
/// server's reply. With logs (one per verify thread), times the registry run
/// and the wire serialization separately.
void verify_misses(const std::vector<ClientRecord>& records, RunResult& result,
                   const std::vector<std::unique_ptr<SpanLog>>* logs) {
  std::vector<const MissRecord*> all;
  for (const ClientRecord& record : records) {
    result.attempted += record.attempted;
    result.failed += record.failed;
    for (const MissRecord& miss : record.misses) all.push_back(&miss);
  }
  std::vector<long long> failed(kVerifyThreads, 0);
  auto check = [&all, &failed, logs](std::size_t t) {
    SpanLog* log = logs != nullptr ? (*logs)[t].get() : nullptr;
    for (std::size_t i = t; i < all.size(); i += kVerifyThreads) {
      if (log != nullptr) log->begin_request(static_cast<std::int64_t>(i));
      // An exception must not escape the thread: it counts as a failed check.
      try {
        const ScenarioSpec spec = ScenarioSpec::from_json(make_miss_spec(all[i]->scenario_seed));
        ScenarioResult local;
        {
          ScopedSpan span(log, "scenario.run");
          local = ScenarioRegistry::instance().run(spec);
        }
        std::string wire;
        {
          ScopedSpan span(log, "scenario.wire");
          wire = local.to_wire_json().dump();
        }
        if (fnv1a64(wire) != all[i]->wire_hash) ++failed[t];
      } catch (const std::exception& e) {
        std::fprintf(stderr, "miss check: %s\n", e.what());
        ++failed[t];
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kVerifyThreads; ++t) threads.emplace_back(check, t);
  for (std::thread& t : threads) t.join();
  result.attempted += static_cast<long long>(all.size());
  for (const long long f : failed) result.failed += f;
}

std::vector<double> gather(const std::vector<ClientRecord>& records,
                           std::vector<double> ClientRecord::* field) {
  std::vector<double> all;
  for (const ClientRecord& r : records) all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  return all;
}

/// Round trips per second in the client's fastest window of kWindowOps
/// consecutive round trips.
double fastest_window_rate(const ClientRecord& record) {
  static_assert(kClients == 1, "one client's windows are the whole server's rate");
  const std::vector<double>& done = record.done_ms;
  std::vector<double> window_ms;
  for (std::size_t i = 0; i + kWindowOps <= done.size(); i += static_cast<std::size_t>(kMissPeriod)) {
    window_ms.push_back(done[i + kWindowOps - 1] - (i == 0 ? 0.0 : done[i - 1]));
  }
  return static_cast<double>(kWindowOps) * 1000.0 / percentile(window_ms, 0.0);
}

double stat(const Json& before, const Json& after, const char* key) {
  return static_cast<double>(after.at(key).as_int() - before.at(key).as_int());
}

}  // namespace

RunResult run_server_mix(const RunOptions& options) {
  std::unique_ptr<LiveServer> server;
  // Earlier set-ups' servers are stopped after timing: a stop can wait out
  // the drain loop's 50 ms poll, which is not set-up work.
  std::vector<std::unique_ptr<LiveServer>> retired;
  HotSet hot;
  bool warm_ok = true;
  // A set-up takes ~10 ms, so three times the usual repetitions cost little
  // and steady the median.
  const double setup_s = median_setup_s(3 * options.setup_reps, [&] {
    if (server) retired.push_back(std::move(server));
    server = std::make_unique<LiveServer>();
    warm_ok = warm(server->port(), options.seed, &hot) && warm_ok;
  });
  retired.clear();
  {
    std::uint64_t h = kFnv1a64Offset;
    for (const std::string& r : hot.requests) h = stable_hash_combine(h, fnv1a64(r));
    char line[160];
    std::snprintf(line, sizeof line, "inputs: server_mix seed %llu, %zu hot specs, digest %016llx",
                  static_cast<unsigned long long>(options.seed), hot.requests.size(),
                  static_cast<unsigned long long>(h));
    note(line);
  }

  RunResult result;
  result.count(warm_ok);
  const std::uint16_t port = server->port();
  std::vector<ClientRecord> records = make_records(options.seconds, options.trace);

  if (!options.trace) {
    trim_heap();
    const bool rss_ok = reset_peak_rss();
    const double wall_s = drive(port, options.seed, 0, hot, options.seconds, &records);
    const double rss = rss_ok ? peak_rss_mb() : 0.0;
    const std::vector<double> op_ms = gather(records, &ClientRecord::op_ms);
    const std::vector<double> miss_ms = gather(records, &ClientRecord::miss_ms);
    verify_misses(records, result, nullptr);
    const double fastest_miss_ms = percentile(miss_ms, 0.0);
    result.add("setup_s", setup_s, "s");
    result.add("op_ms_min", percentile(op_ms, 0.0), "ms");
    result.add("miss_ms_min", fastest_miss_ms, "ms");
    result.add("sim_s_per_wall_s", kMissHorizonS / (fastest_miss_ms / 1000.0), "s/s");
    result.add("req_per_s", fastest_window_rate(records[0]), "1/s");
    add_peak_rss(result, rss);
    char line[200];
    std::snprintf(line, sizeof line,
                  "ops: %zu (%zu misses), %.0f req/s over the run, op_ms_p50 %.4f, "
                  "miss_ms_p50 %.3f, ",
                  op_ms.size(), miss_ms.size(), static_cast<double>(op_ms.size()) / wall_s,
                  median(op_ms), median(miss_ms));
    note(line + describe_tail(tail_at(op_ms, kTailPct), op_ms.size()));
    return result;
  }

  const Json before = server_stats(port);
  drive(port, options.seed, 0, hot, options.seconds, &records);
  const Json after = server_stats(port);
  const double baseline_ms = median(gather(records, &ClientRecord::op_ms));
  std::vector<std::unique_ptr<SpanLog>> verify_logs;
  for (std::size_t t = 0; t < kVerifyThreads; ++t) {
    verify_logs.push_back(std::make_unique<SpanLog>(kClients + 1 + static_cast<int>(t)));
  }
  verify_misses(records, result, &verify_logs);

  std::vector<const SpanLog*> logs;
  std::vector<double> parse_ms;
  std::vector<double> traced_ms;
  auto append = [](std::vector<double>& to, const std::map<std::int64_t, double>& from) {
    for (const double v : values_of(from)) to.push_back(v);
  };
  for (const ClientRecord& r : records) {
    logs.push_back(r.log.get());
    append(parse_ms, r.log->per_request_ms("json.parse", false));
    append(traced_ms, r.log->per_request_ms("op.request", false));
  }
  std::vector<double> run_ms;
  std::vector<double> wire_ms;
  for (const std::unique_ptr<SpanLog>& log : verify_logs) {
    logs.push_back(log.get());
    append(run_ms, log->per_request_ms("scenario.run", false));
    append(wire_ms, log->per_request_ms("scenario.wire", false));
  }
  const double hits = stat(before, after, "hits");
  const double misses = stat(before, after, "misses");
  const std::map<std::string, double> layers = {
      {"server.cache_hits", hits},
      {"server.cache_misses", misses},
      {"server.cache_evictions", stat(before, after, "evictions")},
      {"server.hit_ratio", hits / (hits + misses)},
      {"server.reply_kb", median(gather(records, &ClientRecord::reply_bytes)) / 1024.0},
      {"scenario.run_ms", median(run_ms)},
      {"scenario.wire_ms", median(wire_ms)},
      {"json.parse_ms", median(parse_ms)},
      {"trace.overhead_pct", 100.0 * (median(traced_ms) / baseline_ms - 1.0)},
  };
  add_layer_metrics(result, layers);
  export_trace(options, logs);
  return result;
}

}  // namespace perfbench
