// serve_fleet: the tiered-cache serving workload.
//
// One client connection from this process runs a closed loop through
// pimcomp_router to daemon F, whose remote cache tier is a warm daemon W.
// (One client, not two: a second client's cold compiles and disk parses
// would share the cores with the first's memory hits, and how much they
// overlap depends on the seeded order, which made p50 swing by 20%.)
// All three run in-process over real Unix sockets, on one CPU (see
// pin_to_one_cpu). Each round's request plan is drawn from the run seed;
// the cache tier serving each request is fixed by construction:
//  * disk   — the scenario was compiled into F's disk tier before F started;
//  * remote — it was compiled into W's disk tier only;
//  * cold   — nobody has it, F compiles it;
//  * memory — a repeat of a scenario this client already sent.
// The mix — each scenario sent once from its tier, then kRepeats times from
// memory, so 54 memory, 6 disk, 6 remote and 6 cold requests a round — is
// an assumption, not a measured traffic profile: nothing in the repository
// gives one. It is chosen so that each latency quantile falls inside one
// path (p50 on memory hits, p90 among the remote hits and cold compiles)
// rather than on a boundary between tiers, and so that each miss path gets
// the same number of samples. The rates do not depend on it: they are
// taken per tier (see below).
// A round rebuilds that state from nothing (fresh directories and daemons),
// then runs its plan; rounds repeat until the run's time is up.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/instruction_stream.hpp"
#include "cache/cache_store.hpp"
#include "cache/disk_store.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "core/compile_report.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "fleet/remote_store.hpp"
#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimcomp;
namespace fs = std::filesystem;

constexpr int kInputSize = 64;     // bench resolution
constexpr int kPopulation = 40;    // bench GA budget
constexpr int kGenerations = 60;
constexpr int kParallelism = 20;
constexpr int kRepeats = 3;        // memory-hit repeats of each scenario
constexpr int kMinRounds = 3;
constexpr int kRelayProbePairs = 40;
constexpr int kRemoteProbeLoads = 2;
const std::array<const char*, 3> kModels = {"squeezenet", "resnet18",
                                            "googlenet"};

enum class Tier { kMemory, kDisk, kRemote, kCold };
constexpr std::array<Tier, 4> kTiers = {Tier::kMemory, Tier::kDisk,
                                        Tier::kRemote, Tier::kCold};

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kMemory: return "memory";
    case Tier::kDisk: return "disk";
    case Tier::kRemote: return "remote";
    case Tier::kCold: return "cold";
  }
  return "?";
}

/// One distinct compile of the plan. Its first request is served by
/// `tier`; every repeat is a memory hit.
struct Scenario {
  std::string model;
  PipelineMode mode = PipelineMode::kHighThroughput;
  std::uint64_t ga_seed = 0;
  Tier tier = Tier::kCold;

  /// squeezenet's LL scenarios select the isa-json backend, so their
  /// replies carry an instruction-stream artifact frame (about 1 MB) beside
  /// the outcome; every other reply is a few KB.
  bool artifact() const {
    return mode == PipelineMode::kLowLatency && model == "squeezenet";
  }

  CompileOptions options() const {
    CompileOptions options;
    options.mode = mode;
    options.parallelism_degree = kParallelism;
    options.ga.population = kPopulation;
    options.ga.generations = kGenerations;
    options.seed = ga_seed;
    if (artifact()) options.backend = "isa-json";
    return options;
  }

  serve::CompileRequest request() const {
    serve::CompileRequest request;
    request.model = model;
    request.input_size = kInputSize;
    // No simulation on the server: a memory hit then costs what the cache
    // and the protocol cost, not a cycle simulation of the result.
    request.simulate = false;
    serve::ScenarioSpec spec;
    spec.label = model + (mode == PipelineMode::kLowLatency ? "-ll" : "-ht");
    spec.options = options();
    request.scenarios.push_back(std::move(spec));
    return request;
  }
};

struct PlannedRequest {
  int scenario = 0;
  Tier tier = Tier::kMemory;
};

struct Plan {
  std::vector<Scenario> scenarios;
  std::vector<PlannedRequest> requests;  ///< one round, in sending order
  std::map<Tier, int> counts;  ///< requests per tier in one round
};

/// For each of the disk, remote and cold tiers, every (model, mode) pair
/// appears once. The requests — every scenario once plus kRepeats
/// repeats — are shuffled; the first occurrence of a scenario is its tier
/// request and the rest are memory hits. The multiset of requests is the
/// same for every seed: the seed moves only GA seeds and order. Round r
/// runs make_plan(split_seed(seed, r)), so round 0's plan is make_plan(seed)
/// and a run's tier latencies are taken over several GA draws, not one:
/// a scenario's miss latency depends on its GA seed (resnet18-LL's remote
/// hit ranged from 0.8 s to 1.2 s across workload seeds).
Plan make_plan(std::uint64_t seed) {
  Plan plan;
  Rng rng(seed);
  for (Tier tier : {Tier::kDisk, Tier::kRemote, Tier::kCold}) {
    std::vector<std::pair<const char*, PipelineMode>> combos;
    for (const char* model : kModels) {
      combos.emplace_back(model, PipelineMode::kHighThroughput);
      combos.emplace_back(model, PipelineMode::kLowLatency);
    }
    rng.shuffle(combos);
    for (const auto& [model, mode] : combos) {
      Scenario scenario;
      scenario.model = model;
      scenario.mode = mode;
      // 32 bits: a request's seed travels as a JSON number (a double).
      scenario.ga_seed = split_seed(seed, plan.scenarios.size() + 1) >> 32;
      scenario.tier = tier;
      plan.scenarios.push_back(scenario);
    }
  }
  std::vector<int> tokens;
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    for (int r = 0; r <= kRepeats; ++r) tokens.push_back(static_cast<int>(s));
  }
  rng.shuffle(tokens);
  std::vector<bool> seen(plan.scenarios.size(), false);
  for (int s : tokens) {
    const auto su = static_cast<std::size_t>(s);
    const Tier tier = seen[su] ? Tier::kMemory : plan.scenarios[su].tier;
    seen[su] = true;
    plan.requests.push_back({s, tier});
    ++plan.counts[tier];
  }
  return plan;
}

/// The outcome JSON without its stage times, which differ between a
/// compile and a cache hit by design.
std::string compile_digest(const Json& compile) {
  Json stripped = Json::object();
  for (const auto& [key, value] : compile.items()) {
    if (key != "stage_times") stripped[key] = value;
  }
  return stripped.dump(-1);
}

/// What one reply must equal: the in-process compile of its scenario.
struct ReplyDigest {
  std::string compile;
  std::uint64_t stream = 0;  ///< 0 when no artifact
};

/// One request as the client saw it.
struct Sample {
  int scenario = 0;
  Tier planned = Tier::kMemory;
  std::string served = "cold";  ///< tier named by the mapping cache-hit event
  double latency_ms = 0.0;
  double stage_ms = 0.0;  ///< wire-reported stage_end seconds, summed
  std::map<std::string, double> stage_seconds;  ///< the same, per stage
  bool ok = false;
  std::string error;
  ReplyDigest digest;
};

Sample sample_from_reply(const PlannedRequest& planned,
                         const serve::CompileReply& reply, double latency_ms) {
  Sample sample;
  sample.scenario = planned.scenario;
  sample.planned = planned.tier;
  sample.latency_ms = latency_ms;
  for (const PipelineEvent& event : reply.events) {
    if (event.kind == PipelineEvent::Kind::kStageEnd) {
      sample.stage_ms += event.seconds * 1e3;
      sample.stage_seconds[event.name] += event.seconds;
    } else if (event.kind == PipelineEvent::Kind::kCacheHit &&
               event.name == cache_names::kMapping) {
      sample.served = event.source;
    }
  }
  if (reply.outcomes.size() != 1 || !reply.outcomes[0].ok) {
    sample.error = reply.outcomes.empty() ? std::string("no outcome")
                                          : reply.outcomes[0].error;
    return sample;
  }
  sample.digest.compile = compile_digest(reply.outcomes[0].compile);
  if (!reply.artifacts.empty()) {
    // Parsing validates the stream; the digest compares its content.
    try {
      sample.digest.stream = stream_digest(
          InstructionStream::from_json(reply.artifacts[0].artifact));
    } catch (const std::exception& e) {
      sample.error = std::string("artifact: ") + e.what();
      return sample;
    }
  }
  sample.ok = true;
  return sample;
}

std::map<std::string, std::uint64_t> tier_counters(const Json& stats) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < stats.at("cache").size(); ++i) {
    const Json& row = stats.at("cache").at(i);
    const std::string tier = row.at("tier").as_string();
    for (const char* field : {"hits", "misses", "stores", "evictions"}) {
      out[tier + "." + field] =
          static_cast<std::uint64_t>(row.at(field).as_int());
    }
  }
  return out;
}

/// F's per-tier counter changes one round must produce, from the plan:
/// every first request misses the tiers above the one that serves it; a
/// computed or promoted result is stored into every tier that lacks it
/// (W lacks the disk-tier scenarios, F's disk lacks the remote ones).
std::map<std::string, std::uint64_t> expected_counters(const Plan& plan) {
  const auto n = [&](Tier tier) {
    const auto it = plan.counts.find(tier);
    return static_cast<std::uint64_t>(it == plan.counts.end() ? 0
                                                              : it->second);
  };
  const std::uint64_t mem = n(Tier::kMemory);
  const std::uint64_t disk = n(Tier::kDisk);
  const std::uint64_t remote = n(Tier::kRemote);
  const std::uint64_t cold = n(Tier::kCold);
  return {{"memory.hits", mem},
          {"memory.misses", disk + remote + cold},
          {"memory.stores", disk + remote + cold},
          {"memory.evictions", 0},
          {"disk.hits", disk},
          {"disk.misses", remote + cold},
          {"disk.stores", remote + cold},
          {"disk.evictions", 0},
          {"remote.hits", remote},
          {"remote.misses", cold},
          {"remote.stores", disk + cold},
          {"remote.evictions", 0}};
}

/// One round's fleet: W, F and the router, on fresh cache directories.
class Fleet {
 public:
  Fleet(const fs::path& dir, int round) {
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(round);
    w_dir_ = dir / ("w-" + tag);
    f_dir_ = dir / ("f-" + tag);
    fs::create_directories(w_dir_);
    fs::create_directories(f_dir_);
    w_options_.unix_path = (dir / ("w-" + tag + ".sock")).string();
    w_options_.cache.dir = w_dir_.string();
    f_options_.unix_path = (dir / ("f-" + tag + ".sock")).string();
    f_options_.jobs = 2;
    f_options_.cache.dir = f_dir_.string();
    f_options_.cache.peers = {"unix:" + w_options_.unix_path};
    router_options_.unix_path = (dir / ("r-" + tag + ".sock")).string();
    router_options_.backends = {"unix:" + f_options_.unix_path};
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    if (router_) router_->stop();
    if (f_) f_->stop();
    if (w_) w_->stop();
    std::error_code ignored;
    fs::remove_all(w_dir_, ignored);
    fs::remove_all(f_dir_, ignored);
  }

  /// Compiles `scenario` in-process straight into one daemon's disk tier.
  void preseed(const Scenario& scenario, bool into_f) {
    const serve::ResolvedRequest resolved =
        serve::resolve_compile_request(scenario.request());
    CacheConfig cache;
    cache.dir = into_f ? f_dir_.string() : w_dir_.string();
    CompilerSession session(resolved.graph, resolved.hardware, cache);
    session.compile(scenario.options());
  }

  void start() {
    w_ = std::make_unique<serve::CompileServer>(w_options_);
    w_->start();
    f_ = std::make_unique<serve::CompileServer>(f_options_);
    f_->start();
    router_ = std::make_unique<fleet::Router>(router_options_);
    router_->start();
  }

  std::string router_endpoint() const { return router_->endpoint(); }
  std::string f_endpoint() const { return f_->endpoint(); }
  std::string w_endpoint() const { return w_->endpoint(); }
  const fs::path& w_dir() const { return w_dir_; }

 private:
  fs::path w_dir_;
  fs::path f_dir_;
  serve::ServerOptions w_options_;
  serve::ServerOptions f_options_;
  fleet::RouterOptions router_options_;
  std::unique_ptr<serve::CompileServer> w_;
  std::unique_ptr<serve::CompileServer> f_;
  std::unique_ptr<fleet::Router> router_;
};

/// Keys of the artifacts a disk-tier directory holds.
std::vector<std::uint64_t> artifact_keys(const fs::path& dir) {
  std::vector<std::uint64_t> keys;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    if (const auto key = cache_key_from_hex(entry.path().stem().string())) {
      keys.push_back(*key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct RoundOutput {
  double plan_seconds = 0.0;
  std::vector<Sample> samples;
  std::map<std::string, std::uint64_t> f_counters;
  std::uint64_t router_retries = 0;
  std::uint64_t router_failures = 0;
  std::uint64_t disk_bytes = 0;
};

struct Probes {
  double relay_ms = 0.0;
  double remote_load_ms = 0.0;
  double disk_store_s = 0.0;
  double disk_load_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t frame_bytes = 0;
};

/// Replays the protocol codecs on the frames of round 0's replies (in plan
/// order): each request and each server frame encoded (to_json + dump) and
/// decoded (Json::parse + the message parser).
void replay_codecs(const Plan& plan,
                   const std::vector<serve::CompileReply>& replies,
                   Probes& probes) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Json> frames;
  std::vector<bool> is_request;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    serve::CompileRequest request =
        plan.scenarios[static_cast<std::size_t>(plan.requests[i].scenario)]
            .request();
    request.id = replies[i].id;
    frames.push_back(serve::to_json(request));
    is_request.push_back(true);
    for (const PipelineEvent& event : replies[i].events) {
      frames.push_back(
          serve::to_json(serve::EventMessage{replies[i].id, event}));
      is_request.push_back(false);
    }
    for (const serve::OutcomeMessage& outcome : replies[i].outcomes) {
      frames.push_back(serve::to_json(outcome));
      is_request.push_back(false);
    }
    for (const serve::ArtifactMessage& artifact : replies[i].artifacts) {
      frames.push_back(serve::to_json(artifact));
      is_request.push_back(false);
    }
    serve::DoneMessage done;
    done.id = replies[i].id;
    done.ok_count = replies[i].ok_count;
    done.error_count = replies[i].error_count;
    done.artifact_count = static_cast<int>(replies[i].artifacts.size());
    frames.push_back(serve::to_json(done));
    is_request.push_back(false);
  }
  std::vector<std::string> texts;
  for (const Json& frame : frames) texts.push_back(frame.dump(-1));
  probes.encode_s = ms_since(t0) / 1e3;
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const Json parsed = Json::parse(texts[i]);
    if (is_request[i]) {
      serve::request_from_json(parsed);
    } else {
      serve::server_message_from_json(parsed);
    }
  }
  probes.decode_s = ms_since(t1) / 1e3;
  for (const std::string& text : texts) probes.frame_bytes += text.size() + 1;
}

/// Probes against a live fleet after its plan ran: router relay cost, and
/// RemoteStore loads from W plus DiskStore store/load of the remote-tier
/// scenarios' artifacts (`remote_keys`, what W held before the plan).
void run_probes(const Plan& plan, Fleet& fleet,
                const std::vector<std::uint64_t>& remote_keys,
                const fs::path& dir, SpanRecorder& spans, Probes& probes) {
  {
    // A memory hit sent through the router and straight to F, alternately.
    ScopedSpan span(spans, "probe.router_relay");
    const serve::CompileRequest request = plan.scenarios[0].request();
    serve::CompileClient via_router =
        serve::CompileClient::connect(fleet.router_endpoint());
    serve::CompileClient direct =
        serve::CompileClient::connect(fleet.f_endpoint());
    std::vector<double> routed;
    std::vector<double> straight;
    for (int i = 0; i < kRelayProbePairs; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      via_router.submit(request);
      routed.push_back(ms_since(t0));
      t0 = std::chrono::steady_clock::now();
      direct.submit(request);
      straight.push_back(ms_since(t0));
    }
    probes.relay_ms = median(routed) - median(straight);
  }
  {
    ScopedSpan span(spans, "probe.remote_load");
    CacheConfig config;
    config.peers = {fleet.w_endpoint()};
    fleet::RemoteStore remote(config);
    std::vector<double> loads;
    for (int i = 0; i < kRemoteProbeLoads; ++i) {
      for (std::uint64_t key : remote_keys) {
        const auto t0 = std::chrono::steady_clock::now();
        remote.load(key);
        loads.push_back(ms_since(t0));
      }
    }
    probes.remote_load_ms = median(loads);
  }
  {
    ScopedSpan span(spans, "probe.disk_store");
    CacheConfig source_config;
    source_config.dir = fleet.w_dir().string();
    source_config.read_only = true;
    DiskStore source(source_config);
    CacheConfig probe_config;
    probe_config.dir = (dir / ("probe-" + std::to_string(::getpid()))).string();
    std::vector<double> stores;
    std::vector<double> loads;
    {
      DiskStore probe(probe_config);
      for (std::uint64_t key : remote_keys) {
        const std::optional<CacheHit> hit = source.load(key);
        if (!hit) continue;
        auto t0 = std::chrono::steady_clock::now();
        probe.store(key, hit->entry);
        stores.push_back(ms_since(t0) / 1e3);
        t0 = std::chrono::steady_clock::now();
        probe.load(key);
        loads.push_back(ms_since(t0) / 1e3);
      }
    }
    std::error_code ignored;
    fs::remove_all(probe_config.dir, ignored);
    probes.disk_store_s = median(stores);
    probes.disk_load_s = median(loads);
  }
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the lowest CPU it may run on; returns that CPU, or -1 if it cannot.
/// A request here is a chain of hand-offs between threads (client, router,
/// F, W), one request at a time. On a shared VM a hand-off to an idle vCPU
/// waits until the host runs that vCPU, and that wait, not the program,
/// set the memory-hit p50: its spread over five seeds was 0.38 unpinned
/// and 0.02 to 0.11 pinned.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace

void run_serve_workload(const RunArgs& args, WorkloadResult& out) {
  out.spans.enable(args.trace);
  const int cpu = pin_to_one_cpu();
  out.check(cpu >= 0, "could not pin the workload to one CPU");
  out.details["pinned_cpu"] = cpu;
  const fs::path dir = fs::path(args.out_dir) / "serve";
  fs::create_directories(dir);
  std::vector<Plan> plans;

  std::vector<double> setup_times;
  std::vector<RoundOutput> rounds;
  Probes probes;
  // Peak RSS after each round's plan. The end-to-end figure is round 0's:
  // later rounds reuse the allocator's freed pages unevenly, and their
  // high-water mark wandered by 30% between runs.
  std::vector<double> rss_by_round;
  std::vector<serve::CompileReply> captured;
  const double loop_start = now_seconds();
  // At least kMinRounds rounds; another starts only when it should end
  // within the run's time, judged by the last round.
  double last_round = 0.0;
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         now_seconds() - loop_start + last_round <= args.seconds) {
    const double round_start = now_seconds();
    const int round = static_cast<int>(rounds.size());
    const std::int64_t round_span = out.spans.begin("round", 0, round);
    const Plan& plan = plans.emplace_back(
        make_plan(split_seed(args.seed, static_cast<std::uint64_t>(round))));
    RoundOutput output;

    // --- Set-up: the same cache state every round. ------------------------
    const double t0 = now_seconds();
    const std::int64_t setup_span =
        out.spans.begin("setup", round_span, round);
    Fleet fleet(dir, round);
    for (const Scenario& scenario : plan.scenarios) {
      if (scenario.tier == Tier::kDisk) fleet.preseed(scenario, true);
      if (scenario.tier == Tier::kRemote) fleet.preseed(scenario, false);
    }
    const std::vector<std::uint64_t> remote_keys =
        artifact_keys(fleet.w_dir());
    fleet.start();
    serve::CompileClient client =
        serve::CompileClient::connect(fleet.router_endpoint());
    out.spans.end(setup_span);
    setup_times.push_back(now_seconds() - t0);

    // --- The plan, closed loop. -------------------------------------------
    const bool capture = args.trace && round == 0;
    const std::int64_t plan_span = out.spans.begin("plan", round_span, round);
    const double p0 = now_seconds();
    try {
      for (std::size_t i = 0; i < plan.requests.size(); ++i) {
        const PlannedRequest& planned = plan.requests[i];
        const serve::CompileRequest request =
            plan.scenarios[static_cast<std::size_t>(planned.scenario)]
                .request();
        const std::int64_t span = out.spans.begin(
            std::string("request.") + tier_name(planned.tier), plan_span,
            round * 1000 + static_cast<std::int64_t>(i));
        const auto start = std::chrono::steady_clock::now();
        serve::CompileReply reply = client.submit(request);
        const double latency = ms_since(start);
        out.spans.end(span);
        output.samples.push_back(sample_from_reply(planned, reply, latency));
        if (capture) captured.push_back(std::move(reply));
      }
    } catch (const std::exception& e) {
      out.check(false, "round " + std::to_string(round) + ": " + e.what());
    }
    output.plan_seconds = now_seconds() - p0;
    out.spans.end(plan_span);
    rss_by_round.push_back(peak_rss_mb());

    // --- Counters: F's tiers and the router, straight after the plan. -----
    serve::CompileClient f_stats =
        serve::CompileClient::connect(fleet.f_endpoint());
    const Json f_json = f_stats.stats();
    output.f_counters = tier_counters(f_json);
    for (std::size_t i = 0; i < f_json.at("cache").size(); ++i) {
      const Json& row = f_json.at("cache").at(i);
      if (row.at("tier").as_string() == "disk") {
        output.disk_bytes =
            static_cast<std::uint64_t>(row.at("bytes").as_int());
      }
    }
    serve::CompileClient router_stats =
        serve::CompileClient::connect(fleet.router_endpoint());
    const Json r_json = router_stats.stats();
    for (std::size_t i = 0; i < r_json.at("backends").size(); ++i) {
      const Json& row = r_json.at("backends").at(i);
      output.router_retries +=
          static_cast<std::uint64_t>(row.at("retries").as_int());
      output.router_failures +=
          static_cast<std::uint64_t>(row.at("failures").as_int());
    }
    for (const auto& [name, count] : expected_counters(plan)) {
      const auto it = output.f_counters.find(name);
      const std::uint64_t got = it == output.f_counters.end() ? 0 : it->second;
      out.check(got == count, "round " + std::to_string(round) + ": F " +
                                  name + " = " + std::to_string(got) +
                                  ", plan says " + std::to_string(count));
    }

    if (args.trace && round == 0) {
      ScopedSpan span(out.spans, "probes", round_span, round);
      run_probes(plan, fleet, remote_keys, dir, out.spans, probes);
    }
    out.spans.end(round_span);
    rounds.push_back(std::move(output));
    last_round = now_seconds() - round_start;
  }

  // --- Every reply against an in-process compile of its scenario. The
  // simulated metrics are round 0's, so they are exact at a seed. ---------
  std::vector<std::vector<ReplyDigest>> reference(plans.size());
  std::vector<double> throughputs;
  std::vector<double> makespans_us;
  {
    std::map<std::string, std::unique_ptr<CompilerSession>> sessions;
    for (std::size_t r = 0; r < plans.size(); ++r) {
      for (const Scenario& scenario : plans[r].scenarios) {
        std::unique_ptr<CompilerSession>& session = sessions[scenario.model];
        if (!session) {
          const serve::ResolvedRequest resolved =
              serve::resolve_compile_request(scenario.request());
          session = std::make_unique<CompilerSession>(resolved.graph,
                                                      resolved.hardware);
        }
        const CompileResult result = session->compile(scenario.options());
        ReplyDigest& want = reference[r].emplace_back();
        want.compile = compile_digest(compile_result_to_json(result));
        if (result.stream) want.stream = stream_digest(*result.stream);
        if (r > 0) continue;
        const SimReport sim = session->simulate(result);
        throughputs.push_back(sim.throughput_per_sec());
        makespans_us.push_back(to_us(sim.makespan));
      }
    }
  }

  std::map<Tier, std::vector<double>> latencies;
  std::map<std::string, std::vector<double>> by_kind;  ///< tier/model-mode
  std::vector<double> all_latencies;
  std::vector<double> overheads;
  double plan_seconds = 0.0;
  std::size_t requests = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundOutput& round = rounds[r];
    plan_seconds += round.plan_seconds;
    requests += round.samples.size();
    for (const Sample& sample : round.samples) {
      const Scenario& scenario =
          plans[r].scenarios[static_cast<std::size_t>(sample.scenario)];
      const std::string what = "round " + std::to_string(r) + " " +
                               scenario.model + " seed " +
                               std::to_string(scenario.ga_seed) + " (" +
                               tier_name(sample.planned) + ")";
      const ReplyDigest& want =
          reference[r][static_cast<std::size_t>(sample.scenario)];
      out.check(sample.ok, what + ": request failed: " + sample.error);
      if (!sample.ok) continue;
      out.check(sample.served == tier_name(sample.planned),
                what + ": served from " + sample.served);
      out.check(sample.digest.compile == want.compile &&
                    sample.digest.stream == want.stream,
                what + ": reply differs from the in-process compile");
      latencies[sample.planned].push_back(sample.latency_ms);
      by_kind[std::string(tier_name(sample.planned)) + "/" + scenario.model +
              (scenario.mode == PipelineMode::kLowLatency ? "-ll" : "-ht")]
          .push_back(sample.latency_ms);
      all_latencies.push_back(sample.latency_ms);
      overheads.push_back(sample.latency_ms - sample.stage_ms);
    }
  }
  const std::size_t planned_requests =
      rounds.size() * plans.front().requests.size();
  out.check(requests == planned_requests,
            std::to_string(requests) + " of " +
                std::to_string(planned_requests) + " planned requests ran");

  // Rates per tier, one client in a closed loop: 1 / median latency. The
  // requests rate is their geometric mean, so each tier weighs the same
  // whatever the plan's mix; compiles are the cold requests, the only ones
  // that run the compiler (no reply is simulated on the server).
  std::map<Tier, double> rate_by_tier;
  std::vector<double> rates;
  for (Tier tier : kTiers) {
    rate_by_tier[tier] = 1e3 / median(latencies[tier]);
    rates.push_back(rate_by_tier[tier]);
  }
  out.add_e2e("setup_s", median(setup_times), "s");
  out.add_e2e("peak_rss_mb", rss_by_round.front(), "MB");
  out.add_e2e("compiles_per_s", rate_by_tier[Tier::kCold], "1/s");
  out.add_e2e("requests_per_s", geomean(rates), "1/s");
  out.add_e2e("request_p50_ms", quantile(all_latencies, 0.5), "ms");
  out.add_e2e("request_p90_ms", quantile(all_latencies, 0.9), "ms");
  out.add_e2e("sim_throughput_per_s", geomean(throughputs), "1/s");
  out.add_e2e("sim_latency_us", geomean(makespans_us), "us");

  Json counts = Json::object();
  for (Tier tier : kTiers) {
    counts[tier_name(tier)] = plans.front().counts.at(tier);
  }
  out.details["rounds"] = static_cast<int>(rounds.size());
  out.details["peak_rss_mb_by_round"] = Json::array();
  for (double mb : rss_by_round) {
    out.details["peak_rss_mb_by_round"].push_back(mb);
  }
  out.details["requests"] = static_cast<std::int64_t>(requests);
  out.details["mix_requests_per_s"] =
      static_cast<double>(requests) / plan_seconds;
  out.details["latency_samples"] =
      static_cast<std::int64_t>(all_latencies.size());
  out.details["requests_per_round_by_tier"] = counts;
  Json tier_ms = Json::object();
  Json tier_rates = Json::object();
  for (Tier tier : kTiers) {
    tier_ms[tier_name(tier)] = median(latencies[tier]);
    tier_rates[tier_name(tier)] = rate_by_tier[tier];
  }
  out.details["median_ms_by_tier"] = std::move(tier_ms);
  out.notes.push_back("requests_per_s by tier: " + tier_rates.dump(-1) +
                      "; mix rate " +
                      Json(out.details.at("mix_requests_per_s")).dump());
  out.details["requests_per_s_by_tier"] = std::move(tier_rates);
  Json kind_ms = Json::object();
  for (const auto& [kind, values] : by_kind) kind_ms[kind] = median(values);
  out.details["median_ms_by_tier_and_scenario"] = std::move(kind_ms);
  Json exact = Json::object();
  for (const auto& [name, count] : rounds[0].f_counters) {
    exact[name] = static_cast<std::int64_t>(count);
  }
  exact["disk_bytes"] = static_cast<std::int64_t>(rounds[0].disk_bytes);
  out.details["exact"] = std::move(exact);

  if (!args.trace) return;

  const RoundOutput& first = rounds[0];
  replay_codecs(plans.front(), captured, probes);
  // The compiler's stages ran on F for the cold share only; the wire's
  // stage_end events say for how long, summed over round 0.
  std::map<std::string, double> stages;
  for (const Sample& sample : first.samples) {
    for (const auto& [stage, seconds] : sample.stage_seconds) {
      stages[stage] += seconds;
    }
  }
  out.add_layer("partition.s", stages[stage_names::kPartitioning], "s");
  out.add_layer("mapping.s", stages[stage_names::kMapping], "s");
  out.add_layer("schedule.s", stages[stage_names::kScheduling], "s");
  out.add_layer("backend.lower_s", stages[stage_names::kLowering], "s");
  out.add_layer("cache.memory_hit_ms", median(latencies[Tier::kMemory]), "ms");
  out.add_layer("cache.disk_hit_ms", median(latencies[Tier::kDisk]), "ms");
  out.add_layer("cache.remote_hit_ms", median(latencies[Tier::kRemote]), "ms");
  out.add_layer("cache.cold_ms", median(latencies[Tier::kCold]), "ms");
  out.add_layer("cache.artifact_bytes", static_cast<double>(first.disk_bytes),
                "bytes");
  out.add_layer("cache.disk_store_s", probes.disk_store_s, "s");
  out.add_layer("cache.disk_load_s", probes.disk_load_s, "s");
  for (const auto& [name, count] : first.f_counters) {
    out.add_layer("cache." + name, static_cast<double>(count), "count");
  }
  out.add_layer("serve.encode_s", probes.encode_s, "s");
  out.add_layer("serve.decode_s", probes.decode_s, "s");
  out.add_layer("serve.frame_bytes", static_cast<double>(probes.frame_bytes),
                "bytes");
  out.add_layer("serve.overhead_ms", median(overheads), "ms");
  out.add_layer("fleet.router_relay_ms", probes.relay_ms, "ms");
  out.add_layer("fleet.remote_load_ms", probes.remote_load_ms, "ms");
  out.add_layer("fleet.router_retries",
                static_cast<double>(first.router_retries), "count");
  out.add_layer("fleet.router_failures",
                static_cast<double>(first.router_failures), "count");
}

}  // namespace perfbench
