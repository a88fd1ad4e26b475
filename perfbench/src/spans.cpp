#include "spans.hpp"

#include <map>
#include <utility>

namespace perfbench {

double SpanRecorder::since_origin() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::int64_t SpanRecorder::begin(const std::string& name, std::int64_t parent,
                                 std::int64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, parent, request, since_origin(), -1.0});
  return static_cast<std::int64_t>(spans_.size());
}

void SpanRecorder::end(std::int64_t id) {
  if (!enabled_ || id <= 0) return;
  spans_[static_cast<std::size_t>(id - 1)].end = since_origin();
}

pimcomp::Json SpanRecorder::self_seconds() const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent <= 0 || span.end < 0.0) continue;
    children[static_cast<std::size_t>(span.parent - 1)] +=
        span.end - span.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < 0.0) continue;
    self[span.name] += (span.end - span.start) - children[i];
  }
  pimcomp::Json out = pimcomp::Json::object();
  for (const auto& [name, seconds] : self) out[name] = seconds;
  return out;
}

pimcomp::Json SpanRecorder::to_json() const {
  pimcomp::Json rows = pimcomp::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    pimcomp::Json row = pimcomp::Json::object();
    row["id"] = static_cast<std::int64_t>(i + 1);
    row["name"] = span.name;
    row["parent"] = span.parent;
    row["request"] = span.request;
    row["start_s"] = span.start;
    row["end_s"] = span.end;
    rows.push_back(std::move(row));
  }
  pimcomp::Json out = pimcomp::Json::object();
  out["self_seconds"] = self_seconds();
  out["spans"] = std::move(rows);
  return out;
}

}  // namespace perfbench
