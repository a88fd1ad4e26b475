#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

// What one benchmark run produces, and the small statistics every workload
// shares (medians, quantiles, geometric means, peak RSS).

#include <cstdint>
#include <string>
#include <vector>

#include "backend/instruction_stream.hpp"
#include "common/json.hpp"
#include "spans.hpp"

namespace perfbench {

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< run records and traces land here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload hands back to main(): the checked operation
/// counts, the end-to-end metrics (untraced and traced runs alike), the
/// per-layer metrics (traced runs only) and a free-form record.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Per-layer metric name -> why this workload cannot measure it.
  std::vector<std::pair<std::string, std::string>> absent;
  pimcomp::Json details = pimcomp::Json::object();
  /// Lines printed after the metrics, both modes.
  std::vector<std::string> notes;
  SpanRecorder spans;

  /// Counts one checked operation; a false `ok` records `what` as failed.
  void check(bool ok, const std::string& what);
  void add_e2e(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
};

double now_seconds();
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a over every field of every instruction: a cheap identity for
/// comparing two streams without their JSON artifacts.
std::uint64_t stream_digest(const pimcomp::InstructionStream& stream);

pimcomp::Json metrics_to_json(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_HPP
