#pragma once

/// @file trace.hpp
/// In-memory spans for the traced run, their self times, and the Chrome
/// trace-event export.
///
/// A SpanLog belongs to one thread. Every span records its name, start, end,
/// parent span, and the request (operation) it belongs to. Nothing is
/// written until the run ends; write_chrome_trace then emits the spans as
/// "X" (complete) events that open offline in Perfetto or chrome://tracing.
///
/// A layer's self time is its span's duration minus the time its direct
/// child spans cover. Children on one thread never overlap, so that is the
/// duration minus the sum of the children's durations.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int32_t parent = -1;  ///< index in the same log, -1 for a root
  std::int64_t request = -1;
};

class SpanLog {
 public:
  explicit SpanLog(int thread_id = 1) : thread_id_(thread_id) {}

  /// Spans opened from now on belong to `request`.
  void begin_request(std::int64_t request) { request_ = request; }

  /// Opens a span as a child of the innermost open span; returns its index.
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  [[nodiscard]] int thread_id() const { return thread_id_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-request sum of the self time (or the full duration) of every span
  /// named `name`, in ms. Requests without such a span are absent.
  [[nodiscard]] std::map<std::int64_t, double> per_request_ms(const std::string& name,
                                                              bool self_time) const;

  /// Per-span self time in ns, parallel to spans().
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

 private:
  int thread_id_;
  std::int64_t request_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null log makes it a no-op, so one code path serves the
/// untraced and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Values of a per-request map, for medians.
[[nodiscard]] std::vector<double> values_of(const std::map<std::int64_t, double>& m);

/// Writes every span of `logs` whose request is below `max_request` (all
/// spans when max_request < 0) as Chrome trace-event JSON. Each event
/// carries its request id, its parent's name, and its self time in args.
/// Returns false when the file cannot be written.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<const SpanLog*>& logs,
                                      std::int64_t max_request);

}  // namespace perfbench
