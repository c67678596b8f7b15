#include "measure.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/resource.hpp"
#include "json/json.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Tail tail_at(const std::vector<double>& samples, double pct) {
  return Tail{pct, percentile(samples, pct),
              static_cast<double>(samples.size()) * (100.0 - pct) / 100.0};
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  return static_cast<double>(exadigit::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void trim_heap() { malloc_trim(0); }

std::string RunResult::json_line() const {
  exadigit::Json metrics_json;
  for (const Metric& m : metrics) {
    exadigit::Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics_json[m.name] = std::move(entry);
  }
  exadigit::Json out;
  out["correct"] = correct();
  out["attempted"] = static_cast<std::int64_t>(attempted);
  out["failed"] = static_cast<std::int64_t>(failed);
  out["metrics"] = metrics.empty() ? exadigit::Json(exadigit::Json::Object{}) : metrics_json;
  return out.dump();
}

void note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
