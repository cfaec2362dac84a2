#include "core/aed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/subsolver.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace aed {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Did the subproblem yield a usable (hard-constraint-satisfying) patch?
bool usable(const SubResult& sub) {
  return sub.outcome == SubOutcome::kOk || sub.outcome == SubOutcome::kDegraded;
}

SubResult failedSubResult(SubOutcome outcome, ErrorCode code,
                          const std::string& detail) {
  SubResult result;
  result.outcome = outcome;
  result.code = code;
  result.detail = detail;
  return result;
}

/// Is subproblem `i` the target of a per-subproblem fault (throw, delay,
/// unknown)? Such a group is always solved, so the fault fires.
bool poisoned(const FaultInjection& fault, std::size_t i) {
  const bool perSubproblem = fault.kind == FaultInjection::Kind::kThrow ||
                             fault.kind == FaultInjection::Kind::kDelay ||
                             fault.kind == FaultInjection::Kind::kUnknown;
  return perSubproblem && fault.subproblem >= 0 &&
         static_cast<std::size_t>(fault.subproblem) == i;
}

// Latency/effort histograms (§12). Handles are cached once (function-local
// statics into the leaked global registry) so the record path is pure
// relaxed atomics. All four are recorded on the coordinating thread at the
// post-join merge points, like every other engine metric.
MetricsRegistry::Histogram& histCheckSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.check_seconds");
  return h;
}
MetricsRegistry::Histogram& histSubproblemSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("aed.subproblem_seconds");
  return h;
}
MetricsRegistry::Histogram& histRoundSeconds() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("aed.round_seconds");
  return h;
}
MetricsRegistry::Histogram& histConflicts() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.conflicts");
  return h;
}
MetricsRegistry::Histogram& histDecisions() {
  static MetricsRegistry::Histogram h =
      MetricsRegistry::global().histogram("smt.decisions");
  return h;
}

/// JSON escaping for the flight-dump subproblem section.
std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders the per-subproblem states (outcome, rung, solver effort) as a
/// JSON array for the flight dump's "subproblems" section.
std::string subproblemsJson(const AedResult& result) {
  std::string out = "[";
  bool first = true;
  for (const SubproblemReport& report : result.subproblems) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(report.index) +
           ", \"destination\": \"" + jsonEscape(report.destination) +
           "\", \"outcome\": \"" + subOutcomeName(report.outcome) +
           "\", \"code\": \"" + errorCodeName(report.code) +
           "\", \"rung\": \"" + solveRungName(report.rung) +
           "\", \"seconds\": " + std::to_string(report.seconds) +
           ", \"conflicts\": " + std::to_string(report.solverStats.conflicts) +
           ", \"decisions\": " + std::to_string(report.solverStats.decisions) +
           ", \"vars\": " + std::to_string(report.solverStats.vars) +
           ", \"assertions\": " +
           std::to_string(report.solverStats.assertions) +
           ", \"detail\": \"" + jsonEscape(report.detail) + "\"}";
  }
  out += "\n  ]";
  return out;
}

/// Mirrors one phase breakdown into the unified counter registry under
/// `prefix` ("aed.phase.first_round" → "aed.phase.first_round.solve_seconds").
void publishPhase(MetricsRegistry& metrics, const std::string& prefix,
                  const PhaseBreakdown& phases) {
  metrics.add(prefix + ".sketch_seconds", phases.sketchSeconds);
  metrics.add(prefix + ".encode_seconds", phases.encodeSeconds);
  metrics.add(prefix + ".solve_seconds", phases.solveSeconds);
  metrics.add(prefix + ".extract_seconds", phases.extractSeconds);
  metrics.add(prefix + ".simulate_seconds", phases.simulateSeconds);
}

/// Mirrors the finished run's AedStats (and the absorbed SimCacheStats) into
/// the registry. Called exactly once per synthesize() exit — success, failed,
/// cancelled, or unwinding — from the coordinating thread, after every worker
/// has been joined: workers only ever report through their own SubResult
/// slot, so the merge here cannot race (see DESIGN.md §10).
void publishStats(const AedResult& result) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const AedStats& stats = result.stats;
  metrics.add("aed.runs", 1.0);
  if (!result.success) metrics.add("aed.runs_failed", 1.0);
  if (result.degraded) metrics.add("aed.runs_degraded", 1.0);
  metrics.add("aed.total_seconds", stats.totalSeconds);
  metrics.add("aed.subproblems", static_cast<double>(stats.subproblems));
  metrics.add("aed.subproblems_degraded",
              static_cast<double>(stats.degradedSubproblems));
  metrics.add("aed.subproblems_failed",
              static_cast<double>(stats.failedSubproblems));
  metrics.add("aed.repair_rounds", static_cast<double>(stats.repairRounds));
  metrics.add("aed.warm_start_solves",
              static_cast<double>(stats.warmStartSolves));
  metrics.add("aed.delta_count", static_cast<double>(stats.deltaCount));
  metrics.add("aed.sum_subproblem_seconds", stats.sumSubproblemSeconds);
  publishPhase(metrics, "aed.phase.first_round", stats.firstRound);
  publishPhase(metrics, "aed.phase.repair", stats.repair);

  const SimCacheStats& sim = stats.simulate;
  metrics.add("sim.route_hits", static_cast<double>(sim.routeHits));
  metrics.add("sim.route_misses", static_cast<double>(sim.routeMisses));
  metrics.add("sim.invalidated_entries",
              static_cast<double>(sim.invalidatedEntries));
  metrics.add("sim.full_invalidations",
              static_cast<double>(sim.fullInvalidations));
  metrics.add("sim.targeted_invalidations",
              static_cast<double>(sim.targetedInvalidations));
  metrics.add("sim.evictions", static_cast<double>(sim.evictions));
  metrics.add("sim.quarantined_tables", static_cast<double>(sim.quarantined));
  metrics.add("sim.parallel_batches",
              static_cast<double>(sim.parallelBatches));
  metrics.add("sim.parallel_tasks", static_cast<double>(sim.parallelTasks));

  // Ladder-rung outcome counters (§12), registered even at zero so the
  // snapshot is complete (a missing known stat fails tests/obs_test.cpp).
  static const char* const kRungCounterNames[] = {
      "smt.rung.none",          "smt.rung.warm_start", "smt.rung.full",
      "smt.rung.no_minimality", "smt.rung.hard_only",  "smt.rung.unsat",
      "smt.rung.gave_up",       "smt.rung.precheck",
  };
  for (std::size_t r = 1; r < stats.rungCounts.size(); ++r) {
    metrics.add(kRungCounterNames[r], static_cast<double>(stats.rungCounts[r]));
  }

  // Touch the engine histograms so they exist in every post-run snapshot,
  // recorded or not.
  histCheckSeconds();
  histSubproblemSeconds();
  histRoundSeconds();
  histConflicts();
  histDecisions();
}

}  // namespace

const char* subOutcomeName(SubOutcome outcome) {
  switch (outcome) {
    case SubOutcome::kOk: return "ok";
    case SubOutcome::kDegraded: return "degraded";
    case SubOutcome::kTimedOut: return "timed_out";
    case SubOutcome::kUnsat: return "unsat";
    case SubOutcome::kError: return "error";
    case SubOutcome::kCancelled: return "cancelled";
  }
  return "error";
}

Patch mergePatches(const std::vector<Patch>& patches) {
  Patch merged;
  std::set<std::string> seen;            // dedupe identical edits
  std::set<std::pair<std::string, int>> usedSeqs;

  const auto editKey = [](const Edit& edit) {
    std::string key = std::to_string(static_cast<int>(edit.op)) + "|" +
                      edit.targetPath + "|" +
                      std::string(nodeKindName(edit.kind));
    for (const auto& [k, v] : edit.attrs) key += "|" + k + "=" + v;
    return key;
  };

  // Deterministic collision renumbering: the nearest free *positive*
  // sequence number, searching downward first (a prepended rule should stay
  // in front of the rules it was solved against), then upward. Sequence
  // numbers must stay >= 1 — the config dialect has no zero/negative seq,
  // and the simulator's seq-sorted evaluation would order them wrongly.
  const auto renumber = [&usedSeqs](const std::string& path, int seq) {
    int down = seq > 1 ? seq - 1 : 0;  // 0: no positive slot below seq
    while (down >= 1 && usedSeqs.count({path, down}) != 0) --down;
    if (down >= 1) return down;
    int up = seq >= 1 ? seq + 1 : 1;
    while (usedSeqs.count({path, up}) != 0) ++up;
    return up;
  };

  for (const Patch& patch : patches) {
    for (const Edit& edit : patch.edits()) {
      Edit copy = edit;
      const bool isRuleAdd =
          copy.op == Edit::Op::kAddNode &&
          (copy.kind == NodeKind::kRouteFilterRule ||
           copy.kind == NodeKind::kPacketFilterRule) &&
          copy.attrs.count("seq") != 0;
      if (isRuleAdd) {
        int seq = parseInt(copy.attrs.at("seq"),
                           "seq of merged rule addition at " + copy.targetPath);
        if (seq < 1 || (usedSeqs.count({copy.targetPath, seq}) != 0 &&
                        seen.count(editKey(copy)) == 0)) {
          seq = renumber(copy.targetPath, seq);
          copy.attrs["seq"] = std::to_string(seq);
        }
        usedSeqs.insert({copy.targetPath, seq});
      }
      const std::string key = editKey(copy);
      if (seen.insert(key).second) merged.add(std::move(copy));
    }
  }
  return merged;
}

AedResult synthesize(const ConfigTree& tree, const PolicySet& policies,
                     const std::vector<Objective>& objectives,
                     const AedOptions& options) {
  const auto start = Clock::now();
  Span runSpan("aed.synthesize");
  AedResult result;
  result.updated = tree.clone();

  Topology topo = Topology::fromConfigs(tree);

  const Deadline globalDeadline = options.timeBudgetMs != 0
                                      ? Deadline::after(options.timeBudgetMs)
                                      : Deadline::unlimited();
  const auto cancelled = [&options] {
    return options.cancel != nullptr && options.cancel->stopRequested();
  };

  // ---- partition into subproblems -----------------------------------------
  std::vector<PolicySet> groups;
  std::vector<std::string> destinations;
  if (options.perDestination) {
    for (auto& [dst, set] : groupByDestination(policies)) {
      groups.push_back(set);
      destinations.push_back(dst.str());
    }
  } else if (!policies.empty()) {
    groups.push_back(policies);
    destinations.push_back("*");
  }
  const AedOptions effective = subproblemOptions(options, groups.size());
  result.stats.subproblems = groups.size();
  Progress::setPhase("solve");
  Progress::setRound(0);
  Progress::setWork(groups.size());

  std::vector<SubResult> subResults(groups.size());
  // Solver effort per group, accumulated across repair rounds on the
  // coordinating thread (subResults only keeps the last round's solve).
  std::vector<SolverStats> solverTotals(groups.size());

  // One persistent solver per destination group, alive across repair rounds
  // (the incremental re-solve engine): a repair round pushes only the new
  // blocked-delta clauses into the existing z3::optimize instance instead of
  // re-encoding from scratch. Each solver owns its own z3::context, so the
  // parallel engine can drive distinct solvers from distinct workers; a
  // worker only ever touches its own group's solver. With
  // incrementalResolve off, a fresh solver is built per round (the
  // pre-incremental baseline, kept for A/B benchmarking).
  std::vector<std::unique_ptr<SubproblemSolver>> solvers(groups.size());
  const auto freshSolver = [&](std::size_t i) {
    return std::make_unique<SubproblemSolver>(tree, topo, groups[i],
                                              objectives, effective);
  };

  // Fills the outcome report and aggregate stats from subResults, then
  // mirrors them into the unified metrics registry; called exactly once on
  // every exit path (success, fail(), and — via the unwind guard below —
  // exceptions), so failed and thrown runs are just as attributable as
  // successful ones.
  bool finalized = false;
  const auto finalize = [&](AedResult& res) {
    if (finalized) return;
    finalized = true;
    res.subproblems.clear();
    std::set<std::string> violatedLabels;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const SubResult& sub = subResults[i];
      SubproblemReport report;
      report.index = i;
      report.destination = destinations[i];
      report.policyCount = groups[i].size();
      report.outcome = sub.outcome;
      report.code = sub.code;
      report.detail = sub.detail;
      report.seconds = sub.seconds;
      report.rung = sub.rung;
      report.rungReason = sub.rungReason;
      report.solverStats = solverTotals[i];
      res.subproblems.push_back(std::move(report));

      if (sub.outcome == SubOutcome::kDegraded) {
        ++res.stats.degradedSubproblems;
      } else if (sub.outcome != SubOutcome::kOk) {
        ++res.stats.failedSubproblems;
      }
      if (sub.outcome != SubOutcome::kOk) res.degraded = true;
      for (const std::string& label : sub.violated) {
        violatedLabels.insert(label);
      }
      res.stats.deltaCount += sub.deltaCount;
      res.stats.maxSubproblemSeconds =
          std::max(res.stats.maxSubproblemSeconds, sub.seconds);
      res.stats.sumSubproblemSeconds += sub.seconds;
    }
    std::set<std::string> satisfiedLabels;
    for (const SubResult& sub : subResults) {
      for (const std::string& label : sub.satisfied) {
        if (violatedLabels.count(label) == 0) satisfiedLabels.insert(label);
      }
    }
    res.satisfiedObjectives.assign(satisfiedLabels.begin(),
                                   satisfiedLabels.end());
    res.violatedObjectives.assign(violatedLabels.begin(),
                                  violatedLabels.end());
    res.stats.totalSeconds = secondsSince(start);
    publishStats(res);
    Progress::setPhase(res.success ? (res.degraded ? "degraded" : "done")
                                   : "failed");

    // Post-mortem (§12): any non-clean exit — failed, thrown (via the unwind
    // guard), cancelled, or degraded — leaves a flight dump behind when a
    // dump destination is configured.
    if (!res.success || res.degraded) {
      FlightRecorder::DumpContext dump;
      dump.reason = !res.success ? "synthesize-failed" : "synthesize-degraded";
      dump.errorCode = errorCodeName(res.errorCode);
      dump.detail = res.error;
      dump.sections.emplace_back("subproblems", subproblemsJson(res));
      FlightRecorder::maybeDump(dump);
    }
  };

  const auto fail = [&](ErrorCode code,
                        const std::string& message) -> AedResult&& {
    result.success = false;
    result.error = message;
    result.errorCode = code;
    finalize(result);
    return std::move(result);
  };

  // Deterministic AedErrors still propagate to the caller (the resilience
  // contract), but the run must stay attributable: when an exception unwinds
  // past this frame, finalize the stats collected so far — totalSeconds, the
  // per-subproblem outcomes, the merged phase timings — into the metrics
  // registry before the result is lost. Spans close by themselves (RAII).
  const auto onUnwind = [&] {
    result.success = false;
    if (result.errorCode == ErrorCode::kNone) {
      result.errorCode = ErrorCode::kInternal;
    }
    finalize(result);
  };
  struct UnwindGuard {
    const decltype(onUnwind)& fn;
    int depth = std::uncaught_exceptions();
    ~UnwindGuard() {
      if (std::uncaught_exceptions() > depth) fn();
    }
  } unwindGuard{onUnwind};

  // ---- solve (with simulator-validated repair rounds) ---------------------
  std::vector<std::vector<std::string>> blocked;  // shared across rounds
  std::vector<bool> needsSolve(groups.size(), true);

  // Validation engine, persistent across repair rounds. Each round's tree is
  // a short-lived local, so the engine keeps its own copy; between rounds it
  // is re-bound with the old and new merged patches (both relative to the
  // seed tree), invalidating only the destinations their differing edits can
  // affect.
  std::unique_ptr<SimulationEngine> simEngine;
  Patch lastMerged;

  const std::size_t workers =
      options.workers != 0
          ? options.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // ---- pre-check (DESIGN.md §13) -------------------------------------------
  // One simulation pass over the input tree finds the groups whose policies
  // already hold. Round 0 offers each of them the SubproblemSolver fast
  // path, which proves from the sketch alone that the empty patch is the
  // group's optimum, or falls through to the full solve. The engine built
  // here is the one validation re-binds: the first rebind is relative to
  // the empty patch, so only destinations the merged patch touches are
  // recomputed. The engine runs on this thread (one worker): a pool of its
  // own would stay alive through the solve rounds and pin the malloc arenas
  // its threads touched while the Z3 workers allocate in fresh ones, which
  // raised peak RSS (EXPERIMENTS.md, "Update benchmark"); and these
  // simulations take milliseconds, less than the pool's hand-off costs. A
  // cancelled run skips the stage and reports every group as cancelled.
  std::vector<bool> clean(groups.size(), false);
  if (!groups.empty() && !cancelled()) {
    AED_SPAN("aed.precheck");
    const auto precheckStart = Clock::now();
    simEngine = std::make_unique<SimulationEngine>(
        tree, /*workers=*/1, options.simCacheMaxEntries);
    std::set<Ipv4Prefix> dirty;
    for (const Policy& policy : simEngine->violations(policies)) {
      dirty.insert(policy.cls.dst);
    }
    for (std::size_t i = 0; i < groups.size(); ++i) {
      clean[i] = !poisoned(options.faultInjection, i) &&
                 std::none_of(groups[i].begin(), groups[i].end(),
                              [&dirty](const Policy& policy) {
                                return dirty.count(policy.cls.dst) != 0;
                              });
    }
    result.stats.simulate = simEngine->cacheStats();
    result.stats.firstRound.simulateSeconds += secondsSince(precheckStart);
  }

  for (int round = 0; round <= options.maxRepairIterations; ++round) {
    // Solve all pending subproblems (in parallel when enabled).
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (needsSolve[i]) pending.push_back(i);
    }
    if (pending.empty()) break;

    Span roundSpan("aed.round");
    if (roundSpan.active()) {
      roundSpan.setDetail("round=" + std::to_string(round) +
                          " pending=" + std::to_string(pending.size()));
    }
    Progress::setPhase(round == 0 ? "solve" : "repair");
    Progress::setRound(static_cast<std::size_t>(round));
    Progress::setWork(pending.size());
    // Repair-round duration (solve + validate), recorded however the
    // iteration exits (success break, fail return, or rethrow).
    struct RoundTimer {
      Clock::time_point start = Clock::now();
      ~RoundTimer() { histRoundSeconds().record(secondsSince(start)); }
    } roundTimer;

    // Split the remaining global budget across the queued subproblems: each
    // of the ceil(pending/workers) sequential batches gets an equal share.
    // Clean groups in round 0 are expected to take the pre-check fast path
    // and are not counted.
    std::uint64_t perSubproblemMs = Deadline::kForeverMs;
    if (!globalDeadline.isUnlimited()) {
      const std::size_t toSolve = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::count_if(
                 pending.begin(), pending.end(),
                 [&](std::size_t i) { return round != 0 || !clean[i]; })));
      const std::size_t lanes = std::min<std::size_t>(
          std::max<std::size_t>(1, workers), toSolve);
      const std::size_t batches = (toSolve + lanes - 1) / lanes;
      perSubproblemMs =
          std::max<std::uint64_t>(1, globalDeadline.remainingMillis() /
                                         std::max<std::size_t>(1, batches));
    }

    // Workers write only their own subResults slot; needsSolve (bit-packed
    // vector<bool>) is updated on this thread afterwards.
    //
    // Failure classification: infrastructure failures (timeouts, solver
    // exceptions, fault injection, cancellation) are recorded in the
    // subproblem's slot so one poisoned destination never discards sibling
    // work. Deterministic input/internal AedErrors (malformed policies,
    // invariant violations) still propagate to the caller — but only after
    // every in-flight sibling has been collected, so nothing leaks or races
    // shared state during unwinding.
    const auto isolatable = [](ErrorCode code) {
      return code == ErrorCode::kSubproblemFailed ||
             code == ErrorCode::kTimeout ||
             code == ErrorCode::kSolverUnknown ||
             code == ErrorCode::kCancelled;
    };
    const auto solveOne = [&](std::size_t i) {
      // Runs on a pool worker in parallel mode: the worker installed the
      // submitting thread's span context, so this span parents under the
      // round span regardless of which thread executes it.
      Span span("aed.subproblem");
      if (span.active()) span.setDetail("dst=" + destinations[i]);
      try {
        const FaultInjection& fault = options.faultInjection;
        const bool injected = poisoned(fault, i);
        if (injected && fault.kind == FaultInjection::Kind::kThrow) {
          throw AedError(ErrorCode::kSubproblemFailed,
                         "fault injection: subproblem " + std::to_string(i) +
                             " threw");
        }
        if (injected && fault.kind == FaultInjection::Kind::kDelay) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fault.delayMs));
        }
        if (cancelled()) {
          subResults[i] = failedSubResult(SubOutcome::kCancelled,
                                          ErrorCode::kCancelled,
                                          "cancelled before solving");
          return;
        }
        Deadline deadline = globalDeadline;
        if (!globalDeadline.isUnlimited()) {
          deadline = Deadline::after(perSubproblemMs).min(globalDeadline);
        }
        if (options.subproblemTimeoutMs != 0) {
          deadline = Deadline::after(options.subproblemTimeoutMs).min(deadline);
        }
        if (solvers[i] == nullptr || !effective.incrementalResolve) {
          solvers[i] = freshSolver(i);
        }
        std::optional<SubResult> skipped;
        if (round == 0 && clean[i]) skipped = solvers[i]->precheck();
        if (skipped) {
          // Nothing left to solve for this group: its sketch can go.
          subResults[i] = std::move(*skipped);
          solvers[i].reset();
        } else {
          subResults[i] = solvers[i]->solve(
              blocked, deadline,
              injected && fault.kind == FaultInjection::Kind::kUnknown);
        }
      } catch (const AedError& e) {
        // A throwing solver may hold a poisoned Z3 state; rebuild it before
        // any future re-solve of this group.
        solvers[i].reset();
        if (!isolatable(e.code())) throw;  // deterministic: fail the run
        const SubOutcome outcome = e.code() == ErrorCode::kTimeout
                                       ? SubOutcome::kTimedOut
                                   : e.code() == ErrorCode::kCancelled
                                       ? SubOutcome::kCancelled
                                       : SubOutcome::kError;
        subResults[i] = failedSubResult(outcome, e.code(), e.what());
      } catch (const std::exception& e) {
        // Covers z3::exception: solver infrastructure trouble, isolated.
        solvers[i].reset();
        subResults[i] = failedSubResult(
            SubOutcome::kError, ErrorCode::kSubproblemFailed, e.what());
      }
      Progress::incrDone();
    };
    std::exception_ptr fatal;
    if (options.perDestination && pending.size() > 1 && workers > 1) {
      ThreadPool pool(std::min(workers, pending.size()));
      std::vector<std::pair<std::size_t, std::future<void>>> futures;
      futures.reserve(pending.size());
      for (std::size_t i : pending) {
        futures.emplace_back(i, pool.submit([&solveOne, i] { solveOne(i); }));
      }
      // Collect every future individually: a throwing task must not abandon
      // its in-flight siblings or skip their results. solveOne isolates
      // expected failures itself, so anything escaping here is fatal to the
      // run — but its classification and message are still worth keeping.
      for (auto& [i, future] : futures) {
        try {
          future.get();
        } catch (const AedError& e) {
          if (!fatal) fatal = std::current_exception();
          subResults[i] =
              failedSubResult(SubOutcome::kError, e.code(), e.what());
        } catch (const std::exception& e) {
          if (!fatal) fatal = std::current_exception();
          subResults[i] = failedSubResult(SubOutcome::kError,
                                          ErrorCode::kInternal, e.what());
        }
      }
    } else {
      for (std::size_t i : pending) {
        try {
          solveOne(i);
        } catch (const AedError& e) {
          if (!fatal) fatal = std::current_exception();
          subResults[i] =
              failedSubResult(SubOutcome::kError, e.code(), e.what());
        } catch (const std::exception& e) {
          if (!fatal) fatal = std::current_exception();
          subResults[i] = failedSubResult(SubOutcome::kError,
                                          ErrorCode::kInternal, e.what());
        }
      }
    }
    for (std::size_t i : pending) needsSolve[i] = false;

    // Per-phase timing, split by round kind: round 0 is where every
    // subproblem pays sketch + encode; with incrementalResolve the repair
    // bucket's sketch/encode stay ~0 because the persistent solvers reuse
    // their encodings. Merged before the fatal rethrow below so the work the
    // siblings completed this round stays attributable even when the run
    // unwinds (the guard above publishes it).
    PhaseBreakdown& phaseBucket =
        round == 0 ? result.stats.firstRound : result.stats.repair;
    for (std::size_t i : pending) {
      const SubResult& sub = subResults[i];
      phaseBucket.sketchSeconds += sub.phases.sketchSeconds;
      phaseBucket.encodeSeconds += sub.phases.encodeSeconds;
      phaseBucket.solveSeconds += sub.phases.solveSeconds;
      phaseBucket.extractSeconds += sub.phases.extractSeconds;
      if (sub.warmStart) ++result.stats.warmStartSolves;
      // §12 introspection, merged post-join on this thread: per-solve
      // latency/effort distributions and ladder-rung outcomes.
      histSubproblemSeconds().record(sub.seconds);
      if (sub.rung != SolveRung::kNone) {
        ++result.stats.rungCounts[static_cast<std::size_t>(sub.rung)];
      }
      // A pre-checked group ran no solver check: nothing to record.
      if (sub.rung != SolveRung::kNone && sub.rung != SolveRung::kPrecheck) {
        histCheckSeconds().record(sub.phases.solveSeconds);
        histConflicts().record(
            static_cast<double>(sub.solverStats.conflicts));
        histDecisions().record(
            static_cast<double>(sub.solverStats.decisions));
        solverTotals[i].accumulate(sub.solverStats);
      }
    }
    if (fatal) std::rethrow_exception(fatal);

    // Unsat is fatal for the whole run: the policies conflict (§11 "SMT
    // output for special cases"), and a partial patch would silently drop a
    // policy the operator asked for.
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (subResults[i].outcome == SubOutcome::kUnsat) {
        return fail(ErrorCode::kUnsat,
                    "unsatisfiable: the policies cannot all be implemented "
                    "(subproblem " +
                        std::to_string(i) + ", " +
                        std::to_string(groups[i].size()) + " policies)");
      }
    }

    // Fault isolation: infrastructure failures (timeout, exception, solver
    // unknown, cancellation) are reported per subproblem; the survivors'
    // patches are still merged. Only when nothing survived is the whole run
    // a failure.
    std::size_t usableCount = 0;
    for (const SubResult& sub : subResults) {
      if (usable(sub)) ++usableCount;
    }
    if (usableCount == 0 && !groups.empty()) {
      const auto firstWith = [&](SubOutcome outcome) -> const SubResult* {
        for (const SubResult& sub : subResults) {
          if (sub.outcome == outcome) return &sub;
        }
        return nullptr;
      };
      if (firstWith(SubOutcome::kCancelled) != nullptr) {
        return fail(ErrorCode::kCancelled, "cancelled by the caller");
      }
      if (firstWith(SubOutcome::kTimedOut) != nullptr) {
        return fail(ErrorCode::kTimeout,
                    "time budget exhausted before any subproblem was solved");
      }
      const SubResult* errored = firstWith(SubOutcome::kError);
      return fail(errored != nullptr ? errored->code : ErrorCode::kInternal,
                  "all subproblems failed" +
                      (errored != nullptr && !errored->detail.empty()
                           ? " (first: " + errored->detail + ")"
                           : std::string()));
    }
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (!usable(subResults[i])) {
        logWarn() << "subproblem " << i << " (" << destinations[i]
                  << ") failed: " << subOutcomeName(subResults[i].outcome)
                  << (subResults[i].detail.empty()
                          ? ""
                          : " — " + subResults[i].detail);
      }
    }

    // Merge the surviving patches and validate against the concrete
    // simulator. Policies owned by failed subproblems are excluded from
    // validation — they are already reported as unsatisfied.
    std::vector<Patch> patches;
    PolicySet survivingPolicies;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (!usable(subResults[i])) continue;
      patches.push_back(subResults[i].patch);
      survivingPolicies.insert(survivingPolicies.end(), groups[i].begin(),
                               groups[i].end());
    }
    Patch merged = mergePatches(patches);
    ConfigTree updated = merged.applied(tree);

    if (!options.validateWithSimulator) {
      result.patch = std::move(merged);
      result.updated = std::move(updated);
      break;
    }
    const auto simulateStart = Clock::now();
    PolicySet violated;
    {
      AED_SPAN("aed.validate");
      Progress::setPhase("validate");
      if (options.memoizedSimulator) {
        if (simEngine == nullptr) {
          simEngine = std::make_unique<SimulationEngine>(
              updated, /*workers=*/1, options.simCacheMaxEntries);
        } else {
          simEngine->rebind(updated, {&lastMerged, &merged});
        }
        lastMerged = merged;
        violated = simEngine->violations(survivingPolicies);
        result.stats.simulate = simEngine->cacheStats();
      } else {
        Simulator sim(updated);
        violated = sim.violations(survivingPolicies);
      }
    }
    phaseBucket.simulateSeconds += secondsSince(simulateStart);
    // Deterministic fault injection for repair-heavy scenarios: treat the
    // first rejectRounds passing verdicts as failures, so the blocking +
    // incremental re-solve machinery runs for real (tests and
    // bench_incremental).
    if (violated.empty() &&
        options.faultInjection.kind ==
            FaultInjection::Kind::kRejectValidation &&
        round < options.faultInjection.rejectRounds) {
      // Only policies whose owning subproblem actually made changes can be
      // rejected: an empty patch has no delta set to block, so rejecting its
      // policies would fabricate a model/simulator divergence.
      PolicySet rejectable;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!usable(subResults[i]) || subResults[i].activeDeltas.empty()) {
          continue;
        }
        rejectable.insert(rejectable.end(), groups[i].begin(),
                          groups[i].end());
      }
      if (!rejectable.empty()) {
        logWarn() << "fault injection: rejecting the round-" << round
                  << " validation verdict";
        violated = std::move(rejectable);
      }
    }
    if (violated.empty()) {
      result.patch = std::move(merged);
      result.updated = std::move(updated);
      break;
    }
    ++result.stats.repairRounds;
    if (round == options.maxRepairIterations) {
      return fail(ErrorCode::kValidationFailed,
                  "validation failed after repair rounds: " +
                      std::to_string(violated.size()) +
                      " policies still violated (first: " + violated[0].str() +
                      ")");
    }
    if (cancelled()) {
      return fail(ErrorCode::kCancelled, "cancelled during repair");
    }
    if (globalDeadline.expired()) {
      return fail(ErrorCode::kTimeout,
                  "time budget exhausted during repair: " +
                      std::to_string(violated.size()) +
                      " policies still violated");
    }
    // Block the delta sets of the subproblems owning the violated policies
    // and re-solve just those.
    logWarn() << "patch failed simulation for " << violated.size()
              << " policies; blocking and re-solving";
    // A group's active delta set is pushed at most once per round, even when
    // it owns several violated policies: duplicate blocking clauses would
    // bloat every solver (incremental ones keep them forever).
    std::set<std::size_t> blamedGroups;
    const auto blame = [&](std::size_t i) {
      needsSolve[i] = true;
      if (blamedGroups.insert(i).second) {
        blocked.push_back(subResults[i].activeDeltas);
      }
    };
    for (const Policy& policy : violated) {
      bool blamed = false;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!usable(subResults[i])) continue;
        const bool owns =
            std::any_of(groups[i].begin(), groups[i].end(),
                        [&policy](const Policy& p) {
                          return p.cls.dst == policy.cls.dst;
                        });
        if (!owns || subResults[i].activeDeltas.empty()) continue;
        blame(i);
        blamed = true;
      }
      if (!blamed) {
        // The owning subproblem made no changes: another group's deltas
        // broke this policy. Block every non-empty surviving group.
        for (std::size_t i = 0; i < groups.size(); ++i) {
          if (!usable(subResults[i])) continue;
          if (subResults[i].activeDeltas.empty()) continue;
          blame(i);
          blamed = true;
        }
      }
      if (!blamed) {
        return fail(ErrorCode::kInternal,
                    "model/simulator divergence with an empty patch for " +
                        policy.str());
      }
    }
  }

  // ---- staged deployment (AedOptions::stagedDeployment) --------------------
  // Plan a policy-safe rollout of the synthesized patch and execute it
  // against a scratch clone of the input tree (with any configured stage
  // fault injected). An aborted deployment degrades the result — the patch
  // itself is still valid — and result.updated keeps its meaning: the tree
  // after the *full* patch.
  if (options.stagedDeployment && !result.patch.empty()) {
    Progress::setPhase("deploy");
    DeployOptions deployOptions = options.deploy;
    if (deployOptions.workers == 0) deployOptions.workers = options.workers;
    if (deployOptions.simCacheMaxEntries == 0) {
      deployOptions.simCacheMaxEntries = options.simCacheMaxEntries;
    }
    result.deployment =
        planStagedRollout(tree, result.patch, policies, deployOptions);
    DeployFaultInjection deployFault;
    if (options.faultInjection.kind ==
        FaultInjection::Kind::kStageCommitFailure) {
      deployFault.kind = DeployFaultInjection::Kind::kStageCommitFailure;
      deployFault.stage = options.faultInjection.applyStage;
      deployFault.atEdit = options.faultInjection.applyEdit;
    } else if (options.faultInjection.kind ==
               FaultInjection::Kind::kStageValidationTimeout) {
      deployFault.kind = DeployFaultInjection::Kind::kValidationTimeout;
      deployFault.stage = options.faultInjection.applyStage;
    }
    ConfigTree staged = tree.clone();
    if (!executeDeployment(staged, result.deployment, deployOptions,
                           deployFault)) {
      result.degraded = true;
      logWarn() << "staged deployment aborted ["
                << errorCodeName(result.deployment.code)
                << "]: " << result.deployment.error;
    }
  }

  // ---- aggregate stats and objective reports -------------------------------
  result.success = true;  // before finalize: the registry reads the flag
  finalize(result);
  return result;
}

}  // namespace aed
