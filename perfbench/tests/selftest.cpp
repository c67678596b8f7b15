/// Self-test of the benchmark's correctness checks, order statistics and
/// span arithmetic. Each correctness check must pass on equal outputs and
/// fail on a perturbed one (one flipped PUE sample, one changed reply
/// byte). Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common/stable_hash.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

exadigit::TimeSeries ramp(std::size_t n, double scale) {
  exadigit::TimeSeries s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(15.0 * static_cast<double>(i + 1), scale * i);
  return s;
}

void test_coupled_check() {
  perfbench::CoupledOutput a;
  a.report.total_energy_mwh = 412.5;
  a.report.jobs_completed = 1200;
  a.pue = ramp(96, 0.001);
  a.htws = ramp(96, 0.25);
  perfbench::CoupledOutput b = a;
  expect(perfbench::same_coupled(a, b), "coupled: equal outputs pass");

  // Flip one PUE sample by one ulp.
  std::vector<double> values = b.pue.values();
  values[40] = std::nextafter(values[40], 2.0);
  b.pue = exadigit::TimeSeries(b.pue.times(), values);
  expect(!perfbench::same_coupled(a, b), "coupled: one flipped PUE sample fails");

  perfbench::CoupledOutput c = a;
  c.report.max_loss_mw = -0.0;
  a.report.max_loss_mw = 0.0;
  expect(!perfbench::same_coupled(a, c), "coupled: -0.0 differs from 0.0 bit for bit");

  perfbench::CoupledOutput d = a;
  d.report.jobs_completed += 1;
  expect(!perfbench::same_coupled(a, d), "coupled: a changed report count fails");
}

void test_replay_check() {
  exadigit::PowerReplayResult a;
  a.predicted_power_mw = ramp(200, 0.1);
  a.measured_power_mw = ramp(200, 0.1);
  a.utilization = ramp(200, 0.004);
  a.report.total_energy_mwh = 2800.0;
  exadigit::PowerReplayResult b = a;
  b.wall_ms = a.wall_ms + 5.0;
  expect(perfbench::same_replay(a, b), "replay: equal outputs pass (wall time ignored)");
  std::vector<double> values = b.utilization.values();
  values[199] += 1e-12;
  b.utilization = exadigit::TimeSeries(b.utilization.times(), values);
  expect(!perfbench::same_replay(a, b), "replay: one changed utilization sample fails");
}

void test_reply_check() {
  const std::string reply = R"({"cached":true,"id":"h3","result":{"summary":[["pue",1.0412]]}})";
  expect(perfbench::same_bytes(reply, std::string(reply)), "reply: identical bytes pass");
  std::string changed = reply;
  changed[changed.size() / 2] ^= 0x01;
  expect(!perfbench::same_bytes(reply, changed), "reply: one changed byte fails");
  expect(!perfbench::same_bytes(reply, reply.substr(1)), "reply: a dropped byte fails");
  // server_mix keeps only this hash of a miss reply until its check.
  expect(exadigit::fnv1a64(reply) != exadigit::fnv1a64(changed),
         "reply: one changed byte changes the miss hash");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(std::abs(perfbench::median(v) - 50.5) < 1e-12, "median of 1..100 is 50.5");
  const perfbench::Tail p90 = perfbench::tail_at(v, 90.0);
  expect(std::abs(p90.value - 90.1) < 1e-9, "p90 of 1..100 interpolates to 90.1");
  expect(std::abs(p90.beyond - 10.0) < 1e-9, "100 samples leave 10 beyond p90");
}

void test_self_time() {
  perfbench::SpanLog log;
  log.begin_request(7);
  const auto outer = log.open("outer");
  for (int i = 0; i < 2; ++i) {
    const auto inner = log.open("inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    log.close(inner);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  log.close(outer);
  const double total = log.per_request_ms("outer", false).at(7);
  const double self = log.per_request_ms("outer", true).at(7);
  const double inner = log.per_request_ms("inner", false).at(7);
  expect(std::abs(total - self - inner) < 1e-6, "self time = duration - children");
  expect(inner >= 10.0 && self >= 5.0, "span durations cover the sleeps");
  expect(log.spans()[1].parent == outer && log.spans()[0].parent == -1, "parents recorded");
}

void test_result_line() {
  perfbench::RunResult r;
  r.count(true);
  r.count(false);
  r.add("op_ms_p50", 1.2345678901234, "ms");
  const std::string line = r.json_line();
  expect(line.find("\"failed\":1") != std::string::npos, "result line counts failures");
  expect(line.find("\"correct\":false") != std::string::npos, "a failure makes correct false");
  expect(line.find("1.2345678901234") != std::string::npos, "values keep all their digits");
  expect(line.find("\"unit\":\"ms\"") != std::string::npos, "values carry units");
}

}  // namespace

int main() {
  test_coupled_check();
  test_replay_check();
  test_reply_check();
  test_percentiles();
  test_self_time();
  test_result_line();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
