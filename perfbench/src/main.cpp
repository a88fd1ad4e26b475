// The repository benchmark runner.
//
//   perfbench --workload compile_ht|compile_ll|serve_fleet --seed N
//             --seconds S --trace 0|1 --out-dir DIR --spec BENCHMARK.json
//             [--commit SHA] [--source-digest HEX]
//
// Runs one workload, checks its outputs, prints every metric with its unit,
// writes a run record (machine, build, metrics, checks; plus the spans of a
// traced run) under DIR, and prints one JSON result object as the last line
// of standard output. perfbench/README.md describes the metrics.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

using perfbench::Metric;
using perfbench::RunArgs;
using perfbench::WorkloadResult;
using pimcomp::Json;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload compile_ht|compile_ll|"
               "serve_fleet --seed N --seconds S --trace 0|1 --out-dir DIR "
               "--spec BENCHMARK.json [--commit SHA] [--source-digest HEX]\n";
  std::exit(2);
}

struct Options {
  RunArgs run;
  std::string spec;  ///< BENCHMARK.json: the per-layer metric list
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.run.workload = value;
      } else if (flag == "--seed") {
        options.run.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.run.seconds = std::stod(value);
        have_seconds = options.run.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.run.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.run.out_dir = value;
      } else if (flag == "--spec") {
        options.spec = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.run.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!have_seconds) usage("--seconds must be a positive number");
  if (options.run.out_dir.empty()) usage("--out-dir is required");
  if (options.spec.empty()) usage("--spec is required");
  return options;
}

/// Machine and build facts recorded with every run. A build without
/// optimization or with a sanitizer is invalid: it must never feed a number.
Json build_record(const Options& options, std::string* invalid_reason) {
  const std::string flags = PERFBENCH_CXX_FLAGS;
#if !defined(__OPTIMIZE__)
  *invalid_reason = "built without optimization (__OPTIMIZE__ undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *invalid_reason = "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  *invalid_reason = "built with a sanitizer";
#endif
#endif
  if (flags.find("-fsanitize") != std::string::npos) {
    *invalid_reason = "built with a sanitizer (" + flags + ")";
  }
  char host[256] = {};
  ::gethostname(host, sizeof(host) - 1);
  Json record = Json::object();
  record["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  record["host"] = std::string(host);
  record["compiler"] = std::string(PERFBENCH_COMPILER);
  record["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  record["cxx_flags"] = flags;
  record["git_commit"] = options.commit;
  record["source_digest"] = options.source_digest;
  record["valid"] = invalid_reason->empty();
  return record;
}

/// Orders the per-layer metrics as `spec` (BENCHMARK.json) declares them,
/// fills in every one the workload did not measure (value 0, with the
/// reason recorded) and rejects undeclared names.
void complete_per_layer(const Json& spec, WorkloadResult& result) {
  const Json& declared = spec.at("per_layer");
  std::vector<Metric> ordered;
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const std::string name = declared.at(i).at("name").as_string();
    const auto found = std::find_if(
        result.per_layer.begin(), result.per_layer.end(),
        [&](const Metric& metric) { return metric.name == name; });
    if (found != result.per_layer.end()) {
      ordered.push_back(*found);
      continue;
    }
    ordered.push_back({name, 0.0, declared.at(i).at("unit").as_string()});
    const bool explained = std::any_of(
        result.absent.begin(), result.absent.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (!explained) {
      result.absent.emplace_back(name, "layer not exercised by this workload");
    }
  }
  for (const Metric& metric : result.per_layer) {
    const bool kept = std::any_of(
        ordered.begin(), ordered.end(),
        [&](const Metric& row) { return row.name == metric.name; });
    if (!kept) {
      throw std::logic_error("undeclared per-layer metric " + metric.name);
    }
  }
  result.per_layer = std::move(ordered);
}

std::string run_stem(const RunArgs& args) {
  return args.workload + "-seed" + std::to_string(args.seed);
}

/// The exact outputs must repeat between two runs of one build at one seed:
/// compare against the record an earlier run of the same source left.
void check_determinism(const Options& options, WorkloadResult& result) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(options.run.out_dir) /
                        (run_stem(options.run) + "-exact.json");
  const std::string now = result.details.contains("exact")
                              ? result.details.at("exact").dump(-1)
                              : std::string("null");
  if (fs::exists(path)) {
    try {
      const Json earlier = pimcomp::json_from_file(path.string());
      if (earlier.get("source_digest", std::string()) ==
          options.source_digest) {
        result.check(earlier.at("exact").dump(-1) == now,
                     "exact metrics differ from an earlier run of this "
                     "build at the same seed");
        return;
      }
    } catch (const std::exception&) {
      // An unreadable record is replaced below.
    }
  }
  Json record = Json::object();
  record["source_digest"] = options.source_digest;
  record["exact"] = Json::parse(now);
  pimcomp::json_to_file(record, path.string());
}

/// Tracing overhead: the traced run's end-to-end numbers against the
/// latest untraced run of this workload and seed in the same directory.
Json tracing_overhead(const Options& options, const WorkloadResult& result) {
  namespace fs = std::filesystem;
  const fs::path untraced = fs::path(options.run.out_dir) /
                            (run_stem(options.run) + "-untraced.json");
  Json out = Json::object();
  if (!fs::exists(untraced)) {
    out["absent"] = "no untraced run at this seed in " + options.run.out_dir;
    return out;
  }
  const Json record = pimcomp::json_from_file(untraced.string());
  const Json& base = record.at("end_to_end");
  for (const Metric& metric : result.end_to_end) {
    if (!base.contains(metric.name)) continue;
    const double before = base.at(metric.name).at("value").as_number();
    Json row = Json::object();
    row["untraced"] = before;
    row["traced"] = metric.value;
    row["change_pct"] =
        before != 0.0 ? (metric.value - before) / before * 100.0 : 0.0;
    out[metric.name] = std::move(row);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  const RunArgs& args = options.run;

  std::string invalid;
  Json build = build_record(options, &invalid);
  if (!invalid.empty()) {
    std::cerr << "perfbench: refusing to measure: " << invalid << '\n';
    return 3;
  }

  WorkloadResult result;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "compile_ht") {
      perfbench::run_compile_workload(
          args, pimcomp::PipelineMode::kHighThroughput, result);
    } else if (args.workload == "compile_ll") {
      perfbench::run_compile_workload(
          args, pimcomp::PipelineMode::kLowLatency, result);
    } else if (args.workload == "serve_fleet") {
      perfbench::run_serve_workload(args, result);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
      complete_per_layer(pimcomp::json_from_file(options.spec), result);
    }
    check_determinism(options, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  const double failed_ratio =
      static_cast<double>(result.failed) /
      static_cast<double>(std::max<std::int64_t>(result.attempted, 1));

  // --- Run record (and the spans of a traced run). -------------------------
  Json record = Json::object();
  record["workload"] = args.workload;
  record["seed"] = std::to_string(args.seed);
  record["seconds"] = args.seconds;
  record["trace"] = args.trace;
  record["build"] = std::move(build);
  record["attempted"] = result.attempted;
  record["failed"] = result.failed;
  record["failed_ratio"] = failed_ratio;
  record["failures"] = Json::array();
  for (const std::string& failure : result.failures) {
    record["failures"].push_back(failure);
  }
  record["end_to_end"] = perfbench::metrics_to_json(result.end_to_end);
  if (args.trace) {
    record["per_layer"] = perfbench::metrics_to_json(result.per_layer);
    Json absent = Json::object();
    for (const auto& [name, why] : result.absent) absent[name] = why;
    record["absent"] = std::move(absent);
    record["tracing_overhead"] = tracing_overhead(options, result);
    record["self_seconds"] = result.spans.self_seconds();
  }
  record["details"] = result.details;
  const std::filesystem::path out_dir(args.out_dir);
  try {
    pimcomp::json_to_file(
        record, (out_dir / (run_stem(args) + (args.trace ? "-traced.json"
                                                         : "-untraced.json")))
                    .string());
    if (args.trace) {
      pimcomp::json_to_file(
          result.spans.to_json(),
          (out_dir / (run_stem(args) + "-spans.json")).string());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: cannot write the run record: " << e.what()
              << '\n';
    return 1;
  }

  // --- Human-readable summary, then the result line. -----------------------
  for (const std::string& failure : result.failures) {
    std::cout << "FAILED: " << failure << '\n';
  }
  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << ": " << result.attempted
            << " checked operations, " << result.failed
            << " failed, failed_ratio " << failed_ratio << '\n';
  if (args.trace) {
    for (const Metric& metric : result.end_to_end) {
      std::cout << "  (traced end-to-end) " << metric.name << " = "
                << Json(metric.value).dump() << ' ' << metric.unit << '\n';
    }
  }
  const std::vector<Metric>& shown =
      args.trace ? result.per_layer : result.end_to_end;
  for (const Metric& metric : shown) {
    std::cout << "  " << metric.name << " = " << Json(metric.value).dump()
              << ' ' << metric.unit << '\n';
  }
  for (const std::string& note : result.notes) {
    std::cout << "  " << note << '\n';
  }
  if (args.trace) {
    std::cout << "  tracing overhead: "
              << record.at("tracing_overhead").dump(-1) << '\n';
    std::cout << "  self seconds: " << record.at("self_seconds").dump(-1)
              << '\n';
  }

  Json line = Json::object();
  line["correct"] = result.failed == 0;
  line["attempted"] = result.attempted;
  line["failed"] = result.failed;
  line["metrics"] = perfbench::metrics_to_json(shown);
  std::cout << line.dump(-1) << std::endl;
  return 0;
}
