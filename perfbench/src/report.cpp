#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void WorkloadResult::add_e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void WorkloadResult::add_layer(std::string name, double value,
                               std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t stream_digest(const pimcomp::InstructionStream& stream) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
  };
  mix(stream.ag_count);
  mix(stream.total_ops);
  for (const std::vector<pimcomp::Instruction>& core : stream.cores) {
    mix(static_cast<std::int64_t>(core.size()));
    for (const pimcomp::Instruction& i : core) {
      mix(static_cast<std::int64_t>(i.opcode));
      mix(i.node);
      mix(i.ag);
      mix(i.window);
      mix(i.bytes);
      mix(i.elements);
      mix(i.peer);
      mix(i.tag);
      mix(i.xbars);
      mix(i.local_usage);
    }
  }
  for (std::int64_t v : stream.spill_bytes) mix(v);
  for (std::int64_t v : stream.peak_local_bytes) mix(v);
  return h;
}

pimcomp::Json metrics_to_json(const std::vector<Metric>& metrics) {
  pimcomp::Json out = pimcomp::Json::object();
  for (const Metric& metric : metrics) {
    pimcomp::Json row = pimcomp::Json::object();
    row["value"] = metric.value;
    row["unit"] = metric.unit;
    out[metric.name] = std::move(row);
  }
  return out;
}

}  // namespace perfbench
