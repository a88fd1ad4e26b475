#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

// In-memory span recording for the traced run. A span is a named interval
// with a parent span and a request id; spans are kept in memory and written
// out when the run ends, together with each span name's self time (its
// duration minus its children's). Spans come from one thread, so a span's
// children never overlap.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Recording is off by default; every call below is then a no-op that
  /// returns span id 0, so the untraced loop pays one branch per boundary.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span now; `parent` 0 means a root span.
  std::int64_t begin(const std::string& name, std::int64_t parent,
                     std::int64_t request);
  void end(std::int64_t id);

  /// {"spans": [...], "self_seconds": {name: total self time}}.
  pimcomp::Json to_json() const;
  /// Total self time per span name.
  pimcomp::Json self_seconds() const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = 0;
    std::int64_t request = -1;
    double start = 0.0;
    double end = -1.0;  ///< -1 while open
  };

  double since_origin() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;  ///< span id = index + 1
};

/// Opens a span for the lifetime of the guard.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             std::int64_t parent = 0, std::int64_t request = -1)
      : recorder_(recorder), id_(recorder.begin(name, parent, request)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
