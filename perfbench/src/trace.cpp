#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "json/json.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

std::int32_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    self[i] += duration;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration;
  }
  return self;
}

std::map<std::int64_t, double> SpanLog::per_request_ms(const std::string& name,
                                                       bool self_time) const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::int64_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    const std::int64_t ns = self_time ? self[i] : s.end_ns - s.start_ns;
    out[s.request] += static_cast<double>(ns) / 1e6;
  }
  return out;
}

std::vector<double> values_of(const std::map<std::int64_t, double>& m) {
  std::vector<double> v;
  v.reserve(m.size());
  for (const auto& [key, value] : m) v.push_back(value);
  return v;
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        std::int64_t max_request) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = log->self_ns();
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (max_request >= 0 && s.request >= max_request) continue;
      exadigit::Json args;
      args["request"] = static_cast<std::int64_t>(s.request);
      args["parent"] = s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "";
      args["self_us"] = static_cast<double>(self[i]) / 1e3;
      exadigit::Json event;
      event["name"] = s.name;
      event["cat"] = "perfbench";
      event["ph"] = "X";
      event["pid"] = 1;
      event["tid"] = log->thread_id();
      event["ts"] = static_cast<double>(s.start_ns) / 1e3;
      event["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      event["args"] = std::move(args);
      out << (first ? "\n" : ",\n") << event.dump();
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
