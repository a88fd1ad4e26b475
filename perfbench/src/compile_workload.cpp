// compile_ht and compile_ll: the Table II compile workloads.
//
// One pass compiles and simulates each of the five zoo models once, cold
// (a fresh CompilerSession per compile, so no cache is reused), at paper
// resolution with the paper's GA budget. Each pass draws its own GA seeds
// from the workload seed, so a run's times are taken over several GA draws
// rather than one; passes repeat until the run's time is up. Every compile
// is checked; the first pass's outputs are the run's exact outputs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "cache/cache_store.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "graph/zoo/zoo.hpp"
#include "mapping/fitness.hpp"
#include "mapping/genetic_mapper.hpp"
#include "mapping/puma_mapper.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimcomp;

constexpr int kPopulation = 100;  // Table II GA budget
constexpr int kGenerations = 200;
constexpr int kParallelism = 20;
constexpr int kSetupRepeats = 7;
constexpr int kEvalProbeCalls = 200;
// Streams above this many instructions are validated and replayed but not
// round-tripped through JSON: the Json DOM costs about 1 KiB per
// instruction, so vgg16's LL stream (3.9M instructions at paper
// resolution) would take ~4 GiB and ~25 s to encode.
constexpr std::int64_t kRoundTripMaxOps = 500'000;

struct ModelInput {
  std::string name;
  Graph graph;
  HardwareConfig hw;
};

/// The compile inputs: every zoo model at its canonical (paper) resolution
/// on hardware auto-fitted with 3x replication headroom.
std::vector<ModelInput> build_inputs() {
  std::vector<ModelInput> inputs;
  for (const std::string& name : zoo::model_names()) {
    Graph graph = zoo::build(name);
    const HardwareConfig hw =
        fit_core_count(graph, HardwareConfig::puma_default(), 3.0);
    inputs.push_back({name, std::move(graph), hw});
  }
  return inputs;
}

bool pinned(PipelineMode mode, const std::string& model) {
  return mode == PipelineMode::kLowLatency && model == "vgg16";
}

/// The GA seed the workload seed gives scenario `index` of pass `pass`,
/// unless pinned. Pass 0's seeds are split_seed(seed, index + 1).
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t pass,
                            std::size_t index) {
  return split_seed(split_seed(seed, pass), index + 1);
}

CompileOptions scenario_options(PipelineMode mode, const std::string& model,
                                std::uint64_t seed, std::size_t pass,
                                std::size_t index) {
  CompileOptions options;
  options.mode = mode;
  options.parallelism_degree = kParallelism;
  options.mapper = "ga";
  options.ga.population = kPopulation;
  options.ga.generations = kGenerations;
  options.seed = scenario_seed(seed, pass, index);
  // vgg16's LL schedule size swings with the GA seed (3.9M to 6.1M
  // operations over five seeds), and its compile time with it, from 20 s
  // to 42 s a pass. It keeps the default seed so that run-to-run spread
  // measures the compiler, not the draw; the other four models carry the
  // workload seed. The traced run compiles it once at the seed pass 0
  // would give it too (see run_compile_workload), so the swing stays on
  // record.
  if (pinned(mode, model)) options.seed = CompileOptions{}.seed;
  // LL selects a lowering backend so the pipeline's fourth stage runs.
  if (mode == PipelineMode::kLowLatency) options.backend = "isa-json";
  return options;
}

/// Records one span per pipeline stage under the current compile span and
/// sums the stage seconds the pipeline reports.
class StageSpans final : public PipelineObserver {
 public:
  explicit StageSpans(SpanRecorder& spans) : spans_(spans) {}

  void set_parent(std::int64_t parent, std::int64_t request) {
    parent_ = parent;
    request_ = request;
  }
  std::map<std::string, double>& seconds() { return seconds_; }

  void on_stage_begin(const StageInfo& info) override {
    open_[info.stage] = spans_.begin(info.stage, parent_, request_);
  }
  void on_stage_end(const StageInfo& info) override {
    spans_.end(open_[info.stage]);
    seconds_[info.stage] += info.seconds;
  }

 private:
  SpanRecorder& spans_;
  std::int64_t parent_ = 0;
  std::int64_t request_ = -1;
  std::map<std::string, std::int64_t> open_;
  std::map<std::string, double> seconds_;
};

bool same_reports(const SimReport& a, const SimReport& b) {
  const EnergyBreakdown& ea = a.dynamic_energy;
  const EnergyBreakdown& eb = b.dynamic_energy;
  return a.makespan == b.makespan && a.core_finish == b.core_finish &&
         a.core_busy == b.core_busy && ea.mvm == eb.mvm && ea.vfu == eb.vfu &&
         ea.local_memory == eb.local_memory &&
         ea.global_memory == eb.global_memory && ea.noc == eb.noc &&
         a.leakage_energy == b.leakage_energy &&
         a.avg_local_memory_bytes == b.avg_local_memory_bytes &&
         a.peak_local_memory_bytes == b.peak_local_memory_bytes &&
         a.global_traffic_bytes == b.global_traffic_bytes &&
         a.spill_traffic_bytes == b.spill_traffic_bytes &&
         a.mvm_ops == b.mvm_ops && a.vfu_ops == b.vfu_ops &&
         a.comm_messages == b.comm_messages &&
         a.comm_bytes == b.comm_bytes && a.active_cores == b.active_cores;
}

bool same_instruction(const Instruction& a, const Instruction& b) {
  return a.opcode == b.opcode && a.node == b.node && a.ag == b.ag &&
         a.window == b.window && a.bytes == b.bytes &&
         a.elements == b.elements && a.peer == b.peer && a.tag == b.tag &&
         a.xbars == b.xbars && a.local_usage == b.local_usage;
}

bool same_streams(const InstructionStream& a, const InstructionStream& b) {
  if (a.backend != b.backend || a.mapping_key != b.mapping_key ||
      a.mode != b.mode || a.parallelism_degree != b.parallelism_degree ||
      a.ag_count != b.ag_count || a.total_ops != b.total_ops ||
      a.spill_bytes != b.spill_bytes ||
      a.peak_local_bytes != b.peak_local_bytes ||
      a.cores.size() != b.cores.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    if (!std::equal(a.cores[c].begin(), a.cores[c].end(), b.cores[c].begin(),
                    b.cores[c].end(), same_instruction)) {
      return false;
    }
  }
  return true;
}

/// The exact outputs of one compile: the mapping's fitness and GA
/// trajectory, the schedule size, the simulated answer and the stream. A
/// pinned scenario, compiled at the same seed in every pass, must
/// reproduce them exactly.
struct CompileSummary {
  double estimated_fitness = 0.0;
  std::vector<double> best_history;
  int evaluations = 0;
  std::int64_t schedule_ops = 0;
  std::uint64_t stream = 0;
  SimReport sim;
};

CompileSummary summarize(const CompileResult& result, const SimReport& sim) {
  return {result.estimated_fitness,
          result.ga_stats.best_history,
          result.ga_stats.evaluations,
          result.schedule.total_ops,
          result.stream ? stream_digest(*result.stream) : 0,
          sim};
}

bool same_summary(const CompileSummary& a, const CompileSummary& b) {
  return a.estimated_fitness == b.estimated_fitness &&
         a.best_history == b.best_history && a.evaluations == b.evaluations &&
         a.schedule_ops == b.schedule_ops && a.stream == b.stream &&
         same_reports(a.sim, b.sim);
}

/// Last generation whose best fitness beat the generation before it (0
/// when the GA never improved on its initial population).
int last_improvement(const GaStats& stats) {
  int last = 0;
  for (std::size_t g = 1; g < stats.best_history.size(); ++g) {
    if (stats.best_history[g] < stats.best_history[g - 1]) {
      last = static_cast<int>(g);
    }
  }
  return last;
}

struct PassTimes {
  double wall = 0.0;  ///< compile + simulate of every scenario
  double simulate = 0.0;
  std::map<std::string, double> stages;
};

/// One compiled scenario of the first pass, kept for the probes, the
/// round-trip check and the exact outputs. Its schedule is dropped once
/// checked, and its stream too unless it is small enough to round-trip; the
/// session owns the graph the result's workload points into.
struct FirstPassEntry {
  std::unique_ptr<CompilerSession> session;
  CompileResult result;
  CompileSummary summary;
};

/// The check of every compile: the sim backend replays the compiled
/// program exactly like the cycle simulator, and the stream validates. HT
/// compiles select no backend, so their schedule is lowered with the sim
/// backend first.
void check_compile(const CompilerSession& session, const CompileResult& result,
                   const SimReport& sim, const Backend& sim_backend,
                   WorkloadResult& out) {
  const std::string& name = result.workload->graph().name();
  out.check(sim.makespan > 0, name + ": simulated makespan is 0");
  bool replays = false;
  try {
    InstructionStream lowered;
    const InstructionStream* stream = result.stream.get();
    if (stream == nullptr) {
      LowerInput lower;
      lower.schedule = &result.schedule;
      lower.solution = &result.solution;
      lower.graph = &session.graph();
      lower.hardware = &result.workload->hardware();
      lower.options = &result.options;
      lowered = sim_backend.lower(lower);
      stream = &lowered;
    }
    stream->validate();
    replays = same_reports(
        sim_backend.execute(*stream, result.workload->hardware()), sim);
  } catch (const std::exception& e) {
    out.failures.push_back(name + ": " + e.what());
  }
  out.check(replays, name + ": stream fails to validate, or the sim "
                            "backend's execute differs from Simulator::run");
}

MapperOptions mapper_options(const CompileOptions& options) {
  MapperOptions out;
  out.mode = options.mode;
  out.parallelism_degree = options.parallelism_degree;
  out.max_nodes_per_core = options.max_nodes_per_core;
  out.seed = options.seed;
  return out;
}

}  // namespace

void run_compile_workload(const RunArgs& args, PipelineMode mode,
                          WorkloadResult& out) {
  out.spans.enable(args.trace);
  const bool ll = mode == PipelineMode::kLowLatency;

  // --- Set-up, several times; report the median. One set-up builds the
  // five inputs and warms each up with a tiny HT compile (which also
  // starts the GA's shared worker pool), so the first timed compile pays
  // no lazy initialization.
  std::vector<double> setup_times;
  std::vector<ModelInput> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_seconds();
    inputs = build_inputs();
    for (const ModelInput& input : inputs) {
      CompilerSession warm(input.graph, input.hw);
      CompileOptions options;
      options.ga.population = 8;
      options.ga.generations = 2;
      warm.compile(options);
    }
    setup_times.push_back(now_seconds() - t0);
  }

  // --- Timed loop: whole passes, at least one; another starts only when
  // the timed compile + simulate seconds should stay within the run's time,
  // judged by the last pass. The checks between compiles are not counted,
  // so they do not take passes away from the measurement. --------------
  const std::unique_ptr<Backend> sim_backend = BackendRegistry::create("sim");
  StageSpans observer(out.spans);
  std::vector<FirstPassEntry> first;
  std::vector<PassTimes> passes;
  std::vector<double> compile_ms;  ///< compile + simulate, every scenario
  std::vector<std::vector<double>> model_seconds(inputs.size());
  double timed = 0.0;
  double last_pass = 0.0;
  while (passes.empty() || timed + last_pass <= args.seconds) {
    PassTimes pass;
    const auto pass_index = static_cast<std::int64_t>(passes.size());
    const std::int64_t pass_span = out.spans.begin("pass", 0, pass_index);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const ModelInput& input = inputs[i];
      const CompileOptions scenario =
          scenario_options(mode, input.name, args.seed, passes.size(), i);
      const std::int64_t request =
          pass_index * 100 + static_cast<std::int64_t>(i);
      auto session = std::make_unique<CompilerSession>(input.graph, input.hw);
      if (args.trace) session->set_observer(&observer);

      const double t0 = now_seconds();
      const std::int64_t compile_span =
          out.spans.begin("compile", pass_span, request);
      observer.set_parent(compile_span, request);
      CompileResult result = session->compile(scenario);
      out.spans.end(compile_span);
      const double t1 = now_seconds();
      const std::int64_t sim_span =
          out.spans.begin("simulate", pass_span, request);
      const SimReport sim = session->simulate(result);
      out.spans.end(sim_span);
      const double t2 = now_seconds();
      pass.wall += t2 - t0;
      compile_ms.push_back((t2 - t0) * 1e3);
      model_seconds[i].push_back(t2 - t0);
      pass.simulate += t2 - t1;

      // Outside the timed region. Every compile is checked; a pinned one
      // must also reproduce pass 0 exactly.
      {
        ScopedSpan span(out.spans, "check", pass_span, request);
        check_compile(*session, result, sim, *sim_backend, out);
      }
      CompileSummary summary = summarize(result, sim);
      if (!passes.empty()) {
        if (pinned(mode, input.name)) {
          out.check(same_summary(first[i].summary, summary),
                    input.name + ": pass " + std::to_string(pass_index) +
                        " differs from pass 0 at the same seed");
        }
        continue;
      }
      result.schedule = Schedule{};
      if (result.stream && result.stream->total_ops > kRoundTripMaxOps) {
        result.stream.reset();
      }
      first.push_back(
          {std::move(session), std::move(result), std::move(summary)});
    }
    out.spans.end(pass_span);
    pass.stages = observer.seconds();
    observer.seconds().clear();
    last_pass = pass.wall;
    timed += pass.wall;
    passes.push_back(std::move(pass));
  }
  const double rss_mb = peak_rss_mb();

  // --- Round trips and the exact outputs of the first pass. ---------------
  std::vector<double> throughputs;
  std::vector<double> makespans_us;
  std::vector<double> gains;
  std::int64_t schedule_ops = 0;
  std::int64_t sim_events = 0;
  std::int64_t stream_bytes = 0;
  double encode_seconds = 0.0;
  std::int64_t ga_evaluations = 0;
  double last_improvement_sum = 0.0;
  Json exact = Json::array();
  for (FirstPassEntry& entry : first) {
    const CompileResult& result = entry.result;
    const SimReport& sim = entry.summary.sim;
    const std::string& name = result.workload->graph().name();
    std::int64_t bytes = 0;
    if (result.stream != nullptr) {
      bool round_trips = false;
      try {
        const double t0 = now_seconds();
        const std::string text = result.stream->to_json().dump(-1);
        encode_seconds += now_seconds() - t0;
        bytes = static_cast<std::int64_t>(text.size());
        stream_bytes += bytes;
        const InstructionStream back = InstructionStream::from_json(
            Json::parse(text), result.stream->mapping_key);
        round_trips = same_streams(back, *result.stream);
      } catch (const std::exception& e) {
        out.failures.push_back(name + ": " + e.what());
      }
      out.check(round_trips,
                name + ": instruction stream fails to round-trip");
    }

    const GaStats& ga = result.ga_stats;
    throughputs.push_back(sim.throughput_per_sec());
    makespans_us.push_back(to_us(sim.makespan));
    gains.push_back(ga.initial_best / ga.final_best);
    schedule_ops += entry.summary.schedule_ops;
    sim_events += sim.mvm_ops + sim.vfu_ops + sim.comm_messages;
    ga_evaluations += ga.evaluations;
    last_improvement_sum += last_improvement(ga);

    Json row = Json::object();
    row["model"] = name;
    row["seed"] = std::to_string(result.options.seed);
    row["cores"] = result.workload->hardware().core_count;
    row["estimated_fitness_ps"] = result.estimated_fitness;
    row["ga_initial_best"] = ga.initial_best;
    row["ga_final_best"] = ga.final_best;
    row["ga_evaluations"] = ga.evaluations;
    row["ga_last_improvement_gen"] = last_improvement(ga);
    row["schedule_ops"] = entry.summary.schedule_ops;
    row["sim_makespan_us"] = to_us(sim.makespan);
    row["sim_throughput_per_s"] = sim.throughput_per_sec();
    row["sim_events"] = sim.mvm_ops + sim.vfu_ops + sim.comm_messages;
    row["stream_digest"] = cache_key_hex(entry.summary.stream);
    row["stream_bytes"] = bytes;
    exact.push_back(std::move(row));
  }

  // --- End-to-end metrics. -------------------------------------------------
  // A compile request here is one scenario compiled and simulated. The
  // typical pass sums each model's median time over the passes, so one
  // slow compile does not move it. The typical request is a pass's mean
  // compile latency, the median over passes. A percentile over single
  // compiles would pick a model, not a latency: the five differ 50-fold.
  // And a per-model statistic weighs the small models' 70-250 ms compiles,
  // whose 20 island barriers each wait for idle cores to wake, as much as
  // vgg16's; on a shared host those swung up to 2x between runs at one
  // seed.
  std::vector<double> pass_walls;
  std::vector<double> pass_mean_ms;
  double loop_wall = 0.0;
  for (const PassTimes& pass : passes) {
    pass_walls.push_back(pass.wall);
    pass_mean_ms.push_back(pass.wall * 1e3 /
                           static_cast<double>(inputs.size()));
    loop_wall += pass.wall;
  }
  double typical_pass = 0.0;
  Json model_ms_json = Json::object();
  Json samples_json = Json::object();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double seconds = median(model_seconds[i]);
    typical_pass += seconds;
    model_ms_json[inputs[i].name] = seconds * 1e3;
    Json samples = Json::array();
    for (double s : model_seconds[i]) samples.push_back(s * 1e3);
    samples_json[inputs[i].name] = std::move(samples);
  }
  out.add_e2e("setup_s", median(setup_times), "s");
  out.add_e2e("peak_rss_mb", rss_mb, "MB");
  out.add_e2e("compiles_per_s",
              static_cast<double>(inputs.size()) / typical_pass, "1/s");
  out.add_e2e("requests_per_s",
              static_cast<double>(compile_ms.size()) / loop_wall, "1/s");
  out.add_e2e("request_p50_ms", median(pass_mean_ms), "ms");
  out.add_e2e("request_p90_ms", quantile(compile_ms, 0.9), "ms");
  out.add_e2e("sim_throughput_per_s", geomean(throughputs), "1/s");
  out.add_e2e("sim_latency_us", geomean(makespans_us), "us");

  out.details["passes"] = static_cast<int>(passes.size());
  out.details["median_ms_by_model"] = std::move(model_ms_json);
  out.details["ms_by_model"] = std::move(samples_json);
  out.details["pass_seconds"] = Json::array();
  for (double wall : pass_walls) out.details["pass_seconds"].push_back(wall);
  out.details["exact"] = std::move(exact);

  if (!args.trace) return;

  // --- Per-layer metrics (traced run only). --------------------------------
  const auto median_stage = [&](const char* stage) {
    std::vector<double> values;
    for (const PassTimes& pass : passes) {
      const auto it = pass.stages.find(stage);
      values.push_back(it == pass.stages.end() ? 0.0 : it->second);
    }
    return median(values);
  };
  std::vector<double> sim_runs;
  for (const PassTimes& pass : passes) sim_runs.push_back(pass.simulate);
  const double mapping_s = median_stage(stage_names::kMapping);
  const double sim_run_s = median(sim_runs);

  // Probes, after the timed loop: the GA's initial population alone
  // (generations = 0), the PUMA-like seed, and the population evaluator.
  double ga_init_s = 0.0;
  double puma_s = 0.0;
  std::vector<double> eval_ns_per_model;
  for (const FirstPassEntry& entry : first) {
    const CompileResult& result = entry.result;
    const Workload& workload = *result.workload;
    const MapperOptions options = mapper_options(result.options);
    {
      GaConfig config = result.options.ga;
      config.generations = 0;
      GeneticMapper mapper(config);
      ScopedSpan span(out.spans, "probe.ga_init");
      const double t0 = now_seconds();
      mapper.map(workload, options);
      ga_init_s += now_seconds() - t0;
    }
    {
      PumaMapper mapper;
      ScopedSpan span(out.spans, "probe.puma_seed");
      const double t0 = now_seconds();
      mapper.map(workload, options);
      puma_s += now_seconds() - t0;
    }
    {
      ScopedSpan span(out.spans, "probe.evaluator");
      const LLFitnessContext ll_context(workload);
      PopulationEvaluator evaluator(
          workload,
          FitnessParams::from(workload.hardware(),
                              result.options.parallelism_degree),
          result.options.mode, ll_context, 1,
          result.options.max_nodes_per_core);
      std::vector<double> calls;
      bool agrees = true;
      for (int k = 0; k < kEvalProbeCalls; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        evaluator.load(0, result.solution);
        const double fitness = evaluator.evaluate(0);
        calls.push_back(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        agrees = agrees && fitness == result.estimated_fitness;
      }
      out.check(agrees,
                workload.graph().name() +
                    ": evaluator fitness differs from the compile's estimate");
      eval_ns_per_model.push_back(median(calls));
    }
  }
  // The pinned scenario at the seed the workload would have given it:
  // compile only (no lowering, no simulation), for its schedule size.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!pinned(mode, inputs[i].name)) continue;
    CompileOptions options =
        scenario_options(mode, inputs[i].name, args.seed, 0, i);
    options.seed = scenario_seed(args.seed, 0, i);
    options.backend.clear();
    ScopedSpan span(out.spans, "probe.unpinned_seed");
    CompilerSession session(inputs[i].graph, inputs[i].hw);
    const double t0 = now_seconds();
    const CompileResult result = session.compile(options);
    Json row = Json::object();
    row["model"] = inputs[i].name;
    row["seed"] = std::to_string(options.seed);
    row["compile_s"] = now_seconds() - t0;
    row["schedule_ops"] = result.schedule.total_ops;
    row["estimated_fitness_ps"] = result.estimated_fitness;
    out.notes.push_back("pinned " + inputs[i].name +
                        " at the workload seed: " + row.dump(-1));
    out.details["pinned_at_workload_seed"] = std::move(row);
  }

  double eval_ns = 0.0;
  for (double ns : eval_ns_per_model) eval_ns += ns;
  eval_ns /= static_cast<double>(eval_ns_per_model.size());

  out.add_layer("partition.s", median_stage(stage_names::kPartitioning), "s");
  out.add_layer("mapping.s", mapping_s, "s");
  out.add_layer("mapping.ga_init_s", ga_init_s, "s");
  out.add_layer("mapping.puma_seed_s", puma_s, "s");
  out.add_layer("mapping.eval_ns", eval_ns, "ns");
  out.add_layer("mapping.ga_evaluations", static_cast<double>(ga_evaluations),
                "count");
  out.add_layer("mapping.ga_last_improvement_gen",
                last_improvement_sum / static_cast<double>(first.size()),
                "generation");
  out.add_layer("mapping.ga_gain_pct", (geomean(gains) - 1.0) * 100.0, "%");
  out.add_layer("schedule.s", median_stage(stage_names::kScheduling), "s");
  out.add_layer("schedule.ops", static_cast<double>(schedule_ops), "count");
  out.add_layer("sim.run_s", sim_run_s, "s");
  out.add_layer("sim.ns_per_event",
                sim_run_s * 1e9 / static_cast<double>(sim_events), "ns");
  if (ll) {
    out.add_layer("backend.lower_s", median_stage(stage_names::kLowering),
                  "s");
    out.add_layer("backend.stream_bytes", static_cast<double>(stream_bytes),
                  "bytes");
    out.add_layer("backend.encode_s", encode_seconds, "s");
  } else {
    const char* why = "HT compiles select no backend: no lowering stage runs";
    for (const char* name :
         {"backend.lower_s", "backend.stream_bytes", "backend.encode_s"}) {
      out.absent.emplace_back(name, why);
    }
  }
  out.details["ga_init_share_of_mapping"] = ga_init_s / mapping_s;
}

}  // namespace perfbench
