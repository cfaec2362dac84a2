// Closed-loop update benchmark for AED.
//
// One client sends a seeded stream of network-update requests and waits for
// each answer before sending the next, as an operator waiting for a patch
// would. Every request runs the public pipeline on text inputs:
//
//   parseNetworkConfig → parsePolicies → synthesize → planStagedRollout
//     → executeDeployment (on a copy of the parsed tree)
//
// and every answer is checked outside the program under test: the rolled-out
// tree is re-validated with the serial Simulator (never the SimulationEngine
// the pipeline itself uses), it must print identically to
// patch.applied(tree), and a repeated request must reproduce the same patch
// and the same deterministic work counters.
//
// The request list (one "pass") is generated from --seed; the timed loop
// cycles through it until --seconds have elapsed and at least one whole pass
// is done. Latency percentiles come from the raw per-request samples. Work
// counters (Z3 conflicts, delta variables, lines changed, ...) are totals
// over one pass, so they are exact and repeat bit-identically for a seed.
//
// --trace 1 streams the first 10 requests twice, --seconds/2 each: once
// untraced, once with the program's Tracer on plus the benchmark's own spans
// around each call. The traced stream gives per-layer self time; the latency
// difference between the two is the tracing overhead.
//
// Usage:
//   aed_update_bench --workload zoo-incremental|dc-bulk|dc-templates
//                    --seed N --seconds S --trace 0|1
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit code 0 only when every answer was verified.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "gen/netgen.hpp"
#include "objectives/objective.hpp"
#include "obs/trace.hpp"
#include "policy/parse.hpp"
#include "policy/policy.hpp"
#include "simulate/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace aed;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto toSeconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

double processPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Per-request peak memory: Linux resets the VmHWM high-water mark when "5"
// is written to /proc/self/clear_refs. Where that is not possible the
// readings are the running process peak instead.
void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssSinceResetMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return processPeakRssMb();
}

// ---------------------------------------------------------------- workloads

enum class ObjectiveKind { kMinDevices, kPreserveTemplates };

struct Workload {
  const char* name;
  bool zoo;            // Topology-Zoo-style WAN; otherwise leaf-spine DC
  int minRouters;      // router count range of the generated networks
  int maxRouters;
  int added;           // reachability policies the update adds
  int baseLimit;       // base policies kept (-1 = the full inferred set)
  double blockedPairFraction;  // generator knob: share of blocked pairs
  ObjectiveKind objective;
  // Distinct requests in one pass, sized so a pass takes about the 25 s a
  // run measures on a 4-core machine: runs then answer a near-constant number
  // of requests, and the tail percentile stays at the same rank.
  int requests;
  const char* why;
};

const Workload kWorkloads[] = {
    {"zoo-incremental", true, 14, 18, 2, 16, 0.3, ObjectiveKind::kMinDevices,
     25,
     "large satisfied base plus 2 added policies under min-devices: few "
     "dirty groups, solve-bound (paper Fig. 12 shape)"},
    {"dc-bulk", false, 8, 12, 10, -1, 0.6, ObjectiveKind::kMinDevices, 40,
     "full inferred base plus 10 added policies: nearly every group dirty, "
     "so skipping clean groups cannot gain; encode's largest share"},
    {"dc-templates", false, 8, 12, 3, -1, 0.3,
     ObjectiveKind::kPreserveTemplates, 30,
     "3 added policies under preserve-templates: many user softs, large "
     "patches, most rollout stages and candidate checks"},
};

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Objective> objectivesFor(ObjectiveKind kind) {
  return kind == ObjectiveKind::kMinDevices ? objectivesMinDevices()
                                            : objectivesPreserveTemplates();
}

// One update request as an operator would hand it over: configuration text
// and the complete post-update policy set as text. The shape fields are
// measured on the generated input and never shown to the program.
struct Request {
  std::string label;
  std::string configText;
  std::string policyText;
  int routers = 0;
  std::size_t policies = 0;
  std::size_t groups = 0;
  std::size_t dirtyGroups = 0;
  std::size_t configLines = 0;
};

GeneratedNetwork generateNetwork(const Workload& w, int routers,
                                 std::uint64_t seed) {
  if (w.zoo) {
    ZooParams params;
    params.routers = routers;
    params.blockedPairFraction = w.blockedPairFraction;
    params.seed = seed;
    return generateZoo(params);
  }
  // Leaf-spine: split the router budget into racks, aggregation routers and
  // spines (racks >= 4 so the rack filter template has several clones).
  DcParams params;
  params.spines = routers >= 11 ? 2 : 1;
  params.aggs = routers >= 10 ? 3 : 2;
  params.racks = routers - params.aggs - params.spines;
  params.blockedPairFraction = w.blockedPairFraction;
  params.noiseRules = 2;
  params.seed = seed;
  return generateDatacenter(params);
}

struct Network {
  ConfigTree tree;
  std::string configText;
  int routers = 0;
  // Inferred reachability/blocking policies in a fixed shuffled order. The
  // first baseCount form the base; `candidates` index the blocked pairs an
  // update may ask to open.
  PolicySet inferred;
  std::size_t baseCount = 0;
  std::vector<std::size_t> candidates;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.index(i)]);
  }
}

// Networks a workload updates, one per router count in its range, twice
// over, each with its base policy set. Both are fixed, as in the paper's
// datasets: every seed updates the same networks from the same base, and
// only the stream of updates varies with --seed. Each network takes the
// first generator seed that leaves at least `added` blocked pairs to open.
std::vector<Network> makeNetworks(const Workload& w) {
  constexpr int kCopies = 2;
  const int span = w.maxRouters - w.minRouters + 1;
  std::vector<Network> networks;
  for (int k = 0; k < span * kCopies; ++k) {
    const int routers = w.minRouters + k % span;
    for (std::uint64_t candidate = 0;; ++candidate) {
      if (candidate == 64) {
        throw std::runtime_error("no " + std::to_string(routers) +
                                 "-router network for " + w.name);
      }
      const std::uint64_t netSeed =
          1000 * static_cast<std::uint64_t>(k) + candidate;
      Network net;
      net.tree = generateNetwork(w, routers, netSeed).tree;
      net.routers = routers;
      net.inferred = Simulator(net.tree).inferReachabilityPolicies();
      Rng rng(netSeed);
      shuffle(net.inferred, rng);
      const bool subsample =
          w.baseLimit >= 0 &&
          net.inferred.size() > static_cast<std::size_t>(w.baseLimit);
      net.baseCount = subsample ? static_cast<std::size_t>(w.baseLimit)
                                : net.inferred.size();
      // A subsampled base leaves the pairs outside it to open; a full base
      // gives up the blocking policy of each pair an update opens.
      for (std::size_t i = subsample ? net.baseCount : 0;
           i < net.inferred.size(); ++i) {
        if (net.inferred[i].kind == PolicyKind::kBlocking) {
          net.candidates.push_back(i);
        }
      }
      if (net.candidates.size() >= static_cast<std::size_t>(w.added)) {
        net.configText = printNetworkConfig(net.tree);
        networks.push_back(std::move(net));
        break;
      }
    }
  }
  return networks;
}

// Builds request `index` of the stream: an update of network
// index % networks.size(), so a pass covers every network equally. The seed
// picks which blocked pairs the update opens; they join the base as
// reachability policies (replacing their blocking policy, if the base holds
// one).
Request makeRequest(const Workload& w, const std::vector<Network>& networks,
                    std::uint64_t seed, std::size_t index) {
  const Network& net = networks[index % networks.size()];
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + index + 1);
  std::vector<std::size_t> pick = net.candidates;
  shuffle(pick, rng);
  const std::set<std::size_t> opened(pick.begin(), pick.begin() + w.added);

  PolicySet all;
  for (std::size_t i = 0; i < net.baseCount; ++i) {
    if (opened.count(i) == 0) all.push_back(net.inferred[i]);
  }
  for (std::size_t i : opened) {
    all.push_back(Policy::reachability(net.inferred[i].cls));
  }

  Request request;
  request.label = std::string(w.zoo ? "zoo" : "dc") + " routers=" +
                  std::to_string(net.routers) + " request=" +
                  std::to_string(index);
  request.configText = net.configText;
  request.policyText = printPolicies(all);
  request.routers = net.routers;
  request.policies = all.size();
  request.configLines = static_cast<std::size_t>(
      std::count(request.configText.begin(), request.configText.end(), '\n'));
  const Simulator oracle(net.tree);
  for (const auto& [dst, group] : groupByDestination(all)) {
    ++request.groups;
    if (!oracle.violations(group).empty()) ++request.dirtyGroups;
  }
  return request;
}

// A small request of the same kind, answered and discarded before timing so
// Z3 start-up, the first thread pool and allocator growth stay out of the
// samples.
Request makeWarmupRequest(const Workload& w, std::uint64_t seed) {
  Workload small = w;
  small.minRouters = small.maxRouters = 8;
  small.added = 1;
  const std::vector<Network> networks = makeNetworks(small);
  return makeRequest(small, networks, seed, 0);
}

// ------------------------------------------------------------- one request

// Work counters of one request. Every field is a function of the request
// alone, so a repeat must reproduce it exactly.
struct Counters {
  std::uint64_t subproblems = 0;
  std::uint64_t usefulGroups = 0;
  std::uint64_t repairRounds = 0;
  std::uint64_t deltaVars = 0;
  std::uint64_t assertions = 0;
  std::uint64_t vars = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t checks = 0;
  std::uint64_t warmStarts = 0;
  std::uint64_t degradedRungs = 0;
  std::uint64_t stages = 0;
  std::uint64_t candidatesTried = 0;
  std::uint64_t rolledBack = 0;
  std::uint64_t linesChanged = 0;
  std::uint64_t devicesChanged = 0;
  std::uint64_t objectivesViolated = 0;
  std::size_t patchHash = 0;  // of the printed patch; compared, never summed

  auto tie() const {
    return std::tie(subproblems, usefulGroups, repairRounds, deltaVars,
                    assertions, vars, conflicts, decisions, checks, warmStarts,
                    degradedRungs, stages, candidatesTried, rolledBack,
                    linesChanged, devicesChanged, objectivesViolated,
                    patchHash);
  }
  bool operator==(const Counters& other) const { return tie() == other.tie(); }

  void add(const Counters& o) {
    subproblems += o.subproblems;
    usefulGroups += o.usefulGroups;
    repairRounds += o.repairRounds;
    deltaVars += o.deltaVars;
    assertions += o.assertions;
    vars += o.vars;
    conflicts += o.conflicts;
    decisions += o.decisions;
    checks += o.checks;
    warmStarts += o.warmStarts;
    degradedRungs += o.degradedRungs;
    stages += o.stages;
    candidatesTried += o.candidatesTried;
    rolledBack += o.rolledBack;
    linesChanged += o.linesChanged;
    devicesChanged += o.devicesChanged;
    objectivesViolated += o.objectivesViolated;
  }
};

// Measurements of one request. Times are seconds; only `latency` covers the
// whole pipeline. parseConfig and synthesize are timed around the call; the
// rest come from AedStats and DeploymentPlan.
struct Timings {
  double latency = 0.0;
  double cpu = 0.0;
  double peakRssMb = 0.0;
  double parseConfig = 0.0;
  double synthesize = 0.0;
  double criticalPath = 0.0;
  double subproblemSum = 0.0;
  double validate = 0.0;
  double solve = 0.0;
  double plan = 0.0;
  double execute = 0.0;
  std::uint64_t simHits = 0;
  std::uint64_t simMisses = 0;
};

struct Outcome {
  bool ok = false;
  std::string error;
  Timings t;
  Counters c;
};

// Destination key of an edit, matching how the staged planner attributes
// edits to destination groups: the prefix of an origination / route-filter
// rule, or the dstPrefix of a packet-filter rule.
std::optional<std::string> editDestination(const Edit& edit,
                                           const ConfigTree& base) {
  const auto attrOf = [](const std::map<std::string, std::string>& attrs,
                         const char* key) -> std::optional<std::string> {
    const auto it = attrs.find(key);
    if (it == attrs.end()) return std::nullopt;
    return it->second;
  };
  NodeKind kind = edit.kind;
  std::map<std::string, std::string> attrs = edit.attrs;
  if (edit.op != Edit::Op::kAddNode) {
    const Node* node = base.byPath(edit.targetPath);
    if (node == nullptr) return std::nullopt;
    kind = node->kind();
    attrs = node->attrs();
  }
  switch (kind) {
    case NodeKind::kOrigination:
    case NodeKind::kRouteFilterRule:
      return attrOf(attrs, "prefix");
    case NodeKind::kPacketFilterRule:
      return attrOf(attrs, "dstPrefix");
    default:
      return std::nullopt;
  }
}

std::string describePatch(const Patch& patch) {
  std::string text;
  for (const Edit& edit : patch.edits()) {
    text += edit.describe();
    text += '\n';
  }
  return text;
}

class Pipeline {
 public:
  Pipeline(const Workload& w, std::size_t workers)
      : objectives_(objectivesFor(w.objective)) {
    options_.workers = workers;
    options_.deploy.workers = workers;
    deploy_.workers = workers;
  }

  Outcome run(const Request& request) const {
    Outcome out;
    try {
      runChecked(request, out);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = std::string("exception: ") + e.what();
    }
    return out;
  }

 private:
  void runChecked(const Request& request, Outcome& out) const {
    Timings& t = out.t;
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();

    std::optional<ConfigTree> tree;
    PolicySet policies;
    AedResult result;
    DeploymentPlan plan;
    std::optional<ConfigTree> rollout;
    {
      Span requestSpan("bench.request");
      Clock::time_point mark = Clock::now();
      {
        Span span("bench.parse_config");
        tree.emplace(parseNetworkConfig(request.configText));
      }
      t.parseConfig = secondsSince(mark);
      mark = Clock::now();
      {
        Span span("bench.parse_policies");
        policies = parsePolicies(request.policyText);
      }
      mark = Clock::now();
      {
        Span span("bench.synthesize");
        result = synthesize(*tree, policies, objectives_, options_);
      }
      t.synthesize = secondsSince(mark);
      if (result.success) {
        {
          Span span("bench.plan");
          plan = planStagedRollout(*tree, result.patch, policies, deploy_);
        }
        Span span("bench.execute");
        rollout.emplace(tree->clone());
        executeDeployment(*rollout, plan, deploy_);
      }
    }
    t.latency = secondsSince(start);
    t.cpu = cpuSeconds() - cpu0;
    t.peakRssMb = peakRssSinceResetMb();

    // ---- everything below is untimed: stats readout and verification ----
    const AedStats& s = result.stats;
    t.criticalPath = s.maxSubproblemSeconds;
    t.subproblemSum = s.sumSubproblemSeconds;
    t.validate = s.firstRound.simulateSeconds + s.repair.simulateSeconds;
    t.solve = s.firstRound.solveSeconds + s.repair.solveSeconds;
    t.plan = plan.planSeconds;
    t.execute = plan.executeSeconds;
    t.simHits = s.simulate.routeHits;
    t.simMisses = s.simulate.routeMisses;

    if (!result.success) {
      out.error = "synthesis failed: " + result.error;
      return;
    }
    if (result.degraded) {
      out.error = "synthesis degraded";
      return;
    }
    for (const SubproblemReport& sub : result.subproblems) {
      if (sub.outcome != SubOutcome::kOk) {
        out.error = "subproblem " + sub.destination + " ended " +
                    subOutcomeName(sub.outcome);
        return;
      }
    }
    if (!plan.executed || plan.aborted ||
        plan.committedStages != plan.stages.size()) {
      out.error = "rollout not fully committed: " + plan.error;
      return;
    }

    const ConfigTree expected = result.patch.applied(*tree);
    const std::string expectedText = printNetworkConfig(expected);
    if (printNetworkConfig(*rollout) != expectedText) {
      out.error = "staged rollout differs from patch.applied(tree)";
      return;
    }
    if (printNetworkConfig(result.updated) != expectedText) {
      out.error = "AedResult::updated differs from patch.applied(tree)";
      return;
    }
    const PolicySet violated = Simulator(*rollout).violations(policies);
    if (!violated.empty()) {
      out.error = std::to_string(violated.size()) +
                  " policies violated after rollout, first: " +
                  printPolicy(violated.front());
      return;
    }

    Counters& c = out.c;
    c.subproblems = result.subproblems.size();
    std::set<std::string> touched;
    for (const Edit& edit : result.patch.edits()) {
      if (auto dst = editDestination(edit, *tree)) touched.insert(*dst);
    }
    for (const SubproblemReport& sub : result.subproblems) {
      if (touched.count(sub.destination) != 0) ++c.usefulGroups;
      c.assertions += sub.solverStats.assertions;
      c.vars += sub.solverStats.vars;
      c.conflicts += sub.solverStats.conflicts;
      c.decisions += sub.solverStats.decisions;
      c.checks += sub.solverStats.checks;
    }
    c.repairRounds = s.repairRounds;
    c.deltaVars = s.deltaCount;
    c.warmStarts = s.warmStartSolves;
    c.degradedRungs =
        s.rungCounts[static_cast<std::size_t>(SolveRung::kNoMinimality)] +
        s.rungCounts[static_cast<std::size_t>(SolveRung::kHardOnly)];
    c.stages = plan.stages.size();
    c.candidatesTried = plan.candidatesTried;
    for (const DeploymentStage& stage : plan.stages) {
      if (stage.status == StageStatus::kRolledBack) ++c.rolledBack;
    }
    const DiffStats diff = diffNetworks(*tree, *rollout);
    c.linesChanged = static_cast<std::uint64_t>(diff.linesChanged());
    c.devicesChanged = static_cast<std::uint64_t>(diff.devicesChanged);
    c.objectivesViolated = result.violatedObjectives.size();
    c.patchHash = std::hash<std::string>{}(describePatch(result.patch));
    out.ok = true;
  }

  std::vector<Objective> objectives_;
  AedOptions options_;
  DeployOptions deploy_;
};

// ------------------------------------------------------------ statistics

double quantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantileSorted(values, 0.5);
}

// The highest percentile with at least ten samples above it: the eleventh
// largest sample, named as the percentile it sits at.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};

Tail tailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  const std::size_t n = values.size();
  if (n == 0) return tail;
  const std::size_t index = n > 10 ? n - 11 : 0;
  tail.value = values[index];
  tail.beyond = n - 1 - index;
  tail.percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

// ---------------------------------------------------------- trace ledger

// Layer (src/ module) that owns a span name. The benchmark's own spans
// (bench.*) are named after the call they wrap.
std::string layerOf(const std::string& name) {
  if (name == "bench.parse_config") return "conftree";
  if (name == "bench.parse_policies") return "policy";
  if (name == "bench.synthesize") return "core";
  if (name == "bench.plan" || name == "bench.execute") return "apply";
  if (name == "bench.request") return "bench";
  if (name == "subsolver.sketch") return "sketch";
  if (name == "subsolver.encode" || name == "subsolver.extract") {
    return "encode";
  }
  const std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "aed" || prefix == "subsolver") return "core";
  if (prefix == "smt") return "smt";
  if (prefix == "sim") return "simulate";
  if (prefix == "deploy") return "apply";
  return "other";
}

const char* const kLayers[] = {"conftree", "policy",   "core",  "sketch",
                               "encode",   "smt",      "simulate", "apply",
                               "bench",    "other"};

// Self time per layer: each span's duration minus the part of its interval
// its child spans cover (children on worker threads included), summed.
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<TraceEvent>& events) {
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const TraceEvent& e : events) {
    if (e.parent != 0) {
      children[e.parent].emplace_back(e.startUs, e.startUs + e.durUs);
    }
  }
  std::map<std::string, double> self;
  for (const TraceEvent& e : events) {
    const std::int64_t begin = e.startUs;
    const std::int64_t end = e.startUs + e.durUs;
    std::int64_t covered = 0;
    auto it = children.find(e.id);
    if (it != children.end()) {
      auto& spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::int64_t cursor = begin;
      for (auto [s, f] : spans) {
        s = std::max(s, cursor);
        f = std::min(f, end);
        if (f > s) {
          covered += f - s;
          cursor = f;
        }
      }
    }
    self[layerOf(e.name)] += static_cast<double>(e.durUs - covered) * 1e-6;
  }
  return self;
}

// -------------------------------------------------------------- the run

struct StreamResult {
  std::vector<Timings> samples;  // answered and verified requests
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::size_t passes = 0;
};

// Runs the closed loop: request i+1 is sent only after request i has been
// answered. Stops once `seconds` have elapsed and at least one whole pass
// is done. `firstPass` holds each request's counters; later answers must
// match them exactly.
StreamResult runStream(const Pipeline& pipeline,
                       const std::vector<Request>& requests, double seconds,
                       std::vector<std::optional<Counters>>& firstPass) {
  StreamResult run;
  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  while (next < requests.size() || secondsSince(start) < seconds) {
    const std::size_t index = next % requests.size();
    Outcome out = pipeline.run(requests[index]);
    ++run.attempted;
    if (out.ok) {
      std::optional<Counters>& expected = firstPass[index];
      if (!expected) {
        expected = out.c;
      } else if (!(*expected == out.c)) {
        out.ok = false;
        out.error = "repeat of the request changed its patch or counters";
      }
    }
    if (!out.ok) {
      ++run.failed;
      run.errors.push_back(requests[index].label + ": " + out.error);
    } else {
      run.samples.push_back(out.t);
    }
    ++next;
  }
  run.passes = next / requests.size();
  return run;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "aed_update_bench: " << problem << "\n"
            << "usage: aed_update_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (findWorkload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

// Metric collector: keeps insertion order for the printed table, and a
// JSON fragment for the machine-readable last line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }
  void print(std::ostream& out) const {
    for (const Row& row : rows_) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-26s %16.6f %-8s", row.name.c_str(),
                    row.value, row.unit.c_str());
      out << line << (row.note.empty() ? "" : "  " + row.note) << '\n';
    }
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) out << ", ";
      out << '"' << rows_[i].name << "\": {\"value\": " << rows_[i].value
          << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

double meanOf(const std::vector<Timings>& samples,
              const std::function<double(const Timings&)>& field) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const Timings& t : samples) sum += field(t);
  return sum / static_cast<double>(samples.size());
}

std::vector<double> latencies(const std::vector<Timings>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Timings& t : samples) values.push_back(t.latency);
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const Workload& w = *findWorkload(args.workload);
  // A traced run streams twice (untraced, then traced) in the same time, so
  // its pass is shorter: the first kTracePass requests of the stream, which
  // still cover every network size twice.
  constexpr int kTracePass = 10;
  const std::size_t passLength =
      static_cast<std::size_t>(args.trace ? kTracePass : w.requests);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(4, hardware);

  // ---- set-up: generation, printing, warm-up; repeated, median reported --
  constexpr int kSetups = 5;
  std::vector<double> setupTimes;
  std::vector<Request> requests;
  const Pipeline pipeline(w, workers);
  std::optional<std::string> setupError;
  for (int round = 0; round < kSetups; ++round) {
    const Clock::time_point start = Clock::now();
    const std::vector<Network> networks = makeNetworks(w);
    std::vector<Request> generated;
    generated.reserve(passLength);
    for (std::size_t i = 0; i < passLength; ++i) {
      generated.push_back(makeRequest(w, networks, args.seed, i));
    }
    const Outcome warm = pipeline.run(makeWarmupRequest(w, args.seed));
    if (!warm.ok) setupError = "warm-up request failed: " + warm.error;
    setupTimes.push_back(secondsSince(start));
    requests = std::move(generated);
  }

  std::cout << "workload " << w.name << " seed " << args.seed << " ("
            << w.why << ")\n"
            << "closed loop, 1 client; AedOptions::workers = "
               "DeployOptions::workers = "
            << workers << "; " << passLength << " distinct requests per pass\n";

  // ---- input shape -------------------------------------------------------
  std::size_t totalGroups = 0, totalDirty = 0, totalPolicies = 0,
              totalLines = 0, minRouters = 1 << 30, maxRouters = 0;
  for (const Request& r : requests) {
    totalGroups += r.groups;
    totalDirty += r.dirtyGroups;
    totalPolicies += r.policies;
    totalLines += r.configLines;
    minRouters = std::min<std::size_t>(minRouters, r.routers);
    maxRouters = std::max<std::size_t>(maxRouters, r.routers);
  }
  const double n = static_cast<double>(requests.size());
  std::cout << "shape: routers " << minRouters << "-" << maxRouters
            << ", policies/request " << totalPolicies / n << " (added "
            << w.added << "), groups/request " << totalGroups / n
            << ", dirty groups/request " << totalDirty / n
            << " (dirty fraction "
            << static_cast<double>(totalDirty) / totalGroups
            << " of " << totalGroups << " groups), config lines/request "
            << totalLines / n << "\n";

  std::vector<std::optional<Counters>> firstPass(requests.size());
  StreamResult untraced;
  StreamResult traced;
  std::vector<TraceEvent> events;
  if (!setupError) {
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    untraced = runStream(pipeline, requests, budget, firstPass);
    if (args.trace) {
      Tracer::clear();
      Tracer::enable();
      traced = runStream(pipeline, requests, budget, firstPass);
      Tracer::disable();
      events = Tracer::collect();
      Tracer::clear();
    }
  }

  std::size_t attempted = untraced.attempted + traced.attempted;
  std::size_t failed = untraced.failed + traced.failed;
  std::vector<std::string> errors = untraced.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  if (setupError) {
    errors.push_back(*setupError);
    attempted += 1;
    failed += 1;
  }
  bool countersComplete = true;
  Counters pass;
  for (const auto& c : firstPass) {
    if (!c) {
      countersComplete = false;
      continue;
    }
    pass.add(*c);
  }
  const bool correct = failed == 0 && countersComplete;
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::cout << "FAILED " << errors[i] << "\n";
  }

  const double failedFrac =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
  Report e2e;
  const std::vector<double> lat = latencies(untraced.samples);
  const Tail tail = tailOf(lat);
  char tailNote[128];
  std::snprintf(tailNote, sizeof tailNote, "p%.1f of %zu samples, %zu beyond",
                tail.percentile, lat.size(), tail.beyond);
  e2e.add("update_p50_s", median(lat), "s",
          "median of " + std::to_string(lat.size()) + " samples");
  e2e.add("update_tail_s", tail.value, "s", tailNote);
  // Timed wall time is the sum of request latencies: the benchmark's own
  // verification between requests is not the system's time.
  const double timedWall =
      meanOf(untraced.samples, [](const Timings& t) { return t.latency; }) *
      static_cast<double>(untraced.samples.size());
  e2e.add("updates_per_s",
          timedWall > 0
              ? static_cast<double>(untraced.samples.size()) / timedWall
              : 0.0,
          "1/s",
          std::to_string(untraced.samples.size()) + " completed in " +
              std::to_string(timedWall) + " s timed, " +
              std::to_string(untraced.passes) + " whole passes");
  e2e.add("cpu_s_per_update",
          meanOf(untraced.samples, [](const Timings& t) { return t.cpu; }), "s",
          "getrusage over each request, all threads");
  e2e.add("lines_changed", static_cast<double>(pass.linesChanged), "count",
          "total over one pass of " + std::to_string(requests.size()));
  e2e.add("devices_changed", static_cast<double>(pass.devicesChanged), "count",
          "total over one pass");
  std::vector<double> rss;
  for (const Timings& t : untraced.samples) rss.push_back(t.peakRssMb);
  char rssNote[96];
  std::snprintf(rssNote, sizeof rssNote,
                "median per-request VmHWM; process peak %.1f MB",
                processPeakRssMb());
  e2e.add("peak_rss_mb", median(rss), "MB", rssNote);
  e2e.add("setup_s", median(setupTimes), "s",
          "median of " + std::to_string(kSetups) +
              " set-ups (generate, print, warm-up request)");

  std::cout << "end-to-end (untraced run):\n";
  e2e.print(std::cout);
  std::cout << "  failed_frac                " << failedFrac << " (" << failed
            << " of " << attempted << " attempted)\n";

  Report layers;
  if (args.trace) {
    const std::vector<Timings>& ts = traced.samples;
    const double perRequest = ts.empty() ? 1.0 : static_cast<double>(ts.size());
    const std::map<std::string, double> self = selfSecondsByLayer(events);
    const auto selfOf = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second / perRequest;
    };
    const auto perPass = [](std::uint64_t v) { return static_cast<double>(v); };
    const double groups = static_cast<double>(totalGroups);
    const double lookups = meanOf(ts, [](const Timings& t) {
      return static_cast<double>(t.simHits + t.simMisses);
    });
    const double hits = meanOf(
        ts, [](const Timings& t) { return static_cast<double>(t.simHits); });

    layers.add("conftree.self_s", selfOf("conftree"), "s", "per request");
    layers.add("conftree.parse_s",
               meanOf(ts, [](const Timings& t) { return t.parseConfig; }), "s",
               "per request, parseNetworkConfig timed around the call");
    layers.add("conftree.config_lines", static_cast<double>(totalLines),
               "count", "over one pass");
    layers.add("policy.self_s", selfOf("policy"), "s", "per request");
    layers.add("policy.groups", groups, "count", "over one pass");
    layers.add("policy.dirty_groups", static_cast<double>(totalDirty), "count",
               "over one pass, serial Simulator on the input");
    layers.add("core.self_s", selfOf("core"), "s", "per request");
    layers.add("core.synthesize_s",
               meanOf(ts, [](const Timings& t) { return t.synthesize; }), "s",
               "per request, timed around the call");
    layers.add("core.critical_path_s",
               meanOf(ts, [](const Timings& t) { return t.criticalPath; }), "s",
               "per request, maxSubproblemSeconds");
    layers.add("core.subproblem_sum_s",
               meanOf(ts, [](const Timings& t) { return t.subproblemSum; }),
               "s", "per request");
    layers.add("core.overhead_s", meanOf(ts, [](const Timings& t) {
                 return t.synthesize - t.criticalPath - t.validate;
               }),
               "s", "per request, synthesize - critical path - validate");
    layers.add("core.useful_solve_frac",
               pass.subproblems == 0
                   ? 0.0
                   : static_cast<double>(pass.usefulGroups) / pass.subproblems,
               "ratio",
               std::to_string(pass.usefulGroups) + " groups with edits of " +
                   std::to_string(pass.subproblems) + " solved");
    layers.add("core.repair_rounds", perPass(pass.repairRounds), "count",
               "over one pass");
    layers.add("sketch.self_s", selfOf("sketch"), "s", "per request");
    layers.add("sketch.delta_vars", perPass(pass.deltaVars), "count",
               "over one pass");
    layers.add("encode.self_s", selfOf("encode"), "s", "per request");
    layers.add("encode.assertions", perPass(pass.assertions), "count",
               "over one pass");
    layers.add("encode.vars", perPass(pass.vars), "count", "over one pass");
    layers.add("smt.self_s", selfOf("smt"), "s", "per request");
    layers.add("smt.solve_s",
               meanOf(ts, [](const Timings& t) { return t.solve; }), "s",
               "per request, summed over subproblems");
    layers.add("smt.conflicts", perPass(pass.conflicts), "count",
               "over one pass");
    layers.add("smt.decisions", perPass(pass.decisions), "count",
               "over one pass");
    layers.add("smt.checks", perPass(pass.checks), "count", "over one pass");
    layers.add("smt.warm_starts", perPass(pass.warmStarts), "count",
               "over one pass");
    layers.add("smt.degraded_rungs", perPass(pass.degradedRungs), "count",
               "over one pass");
    layers.add("simulate.self_s", selfOf("simulate"), "s", "per request");
    layers.add("simulate.validate_s",
               meanOf(ts, [](const Timings& t) { return t.validate; }), "s",
               "per request");
    layers.add("simulate.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio",
               "of " + std::to_string(lookups) + " lookups per request");
    layers.add("objectives.violated", perPass(pass.objectivesViolated),
               "count", "violated objective labels over one pass");
    layers.add("apply.self_s", selfOf("apply"), "s", "per request");
    layers.add("apply.plan_s",
               meanOf(ts, [](const Timings& t) { return t.plan; }), "s",
               "per request, DeploymentPlan::planSeconds");
    layers.add("apply.execute_s",
               meanOf(ts, [](const Timings& t) { return t.execute; }),
               "s", "per request, DeploymentPlan::executeSeconds");
    layers.add("apply.stages", perPass(pass.stages), "count", "over one pass");
    layers.add("apply.candidates_tried", perPass(pass.candidatesTried), "count",
               "over one pass");
    layers.add("apply.rolled_back", perPass(pass.rolledBack), "count",
               "over one pass");
    const double untracedMean =
        meanOf(untraced.samples, [](const Timings& t) { return t.latency; });
    const double tracedMean =
        meanOf(ts, [](const Timings& t) { return t.latency; });
    layers.add("trace.overhead_s", tracedMean - untracedMean, "s",
               "mean traced - mean untraced latency per request");

    std::cout << "per-layer (traced run, " << ts.size() << " requests, "
              << events.size() << " spans):\n";
    layers.print(std::cout);
    double phaseSum = 0.0;
    for (const char* layer : kLayers) phaseSum += selfOf(layer);
    std::cout << "  self time by layer, share of " << phaseSum
              << " s summed self time per request:";
    for (const char* layer : kLayers) {
      std::cout << ' ' << layer << '='
                << (phaseSum > 0 ? selfOf(layer) / phaseSum : 0.0);
    }
    std::cout << "\n  dirty groups / groups = " << totalDirty << " / "
              << totalGroups << " = "
              << (totalGroups ? static_cast<double>(totalDirty) / totalGroups
                              : 0.0)
              << "\n  tracing overhead: traced mean "
              << tracedMean << " s - untraced mean " << untracedMean << " s\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << (args.trace ? layers.json() : e2e.json())
            << "}" << std::endl;
  return correct ? 0 : 1;
}
