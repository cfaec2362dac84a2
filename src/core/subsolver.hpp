// Persistent per-subproblem MaxSMT solver (the incremental re-solve engine).
//
// One SubproblemSolver owns the Sketch, SmtSession (and therefore the
// z3::context + z3::optimize instance), and Encoder for one subproblem (the
// whole problem, or one destination group) for the lifetime of a synthesis
// run. The first solve() pays the full sketch + encode cost; every repair
// round after that only pushes the *new* blocked-delta hard clauses into the
// live solver and re-checks, instead of rebuilding everything from scratch.
//
// Why incremental blocking is sound: the blocked-delta list shared across
// repair rounds grows monotonically — a delta combination that failed
// simulator validation once is invalid forever (the simulator is
// deterministic over a fixed tree+policy set), so its blocking clause is a
// permanent hard constraint, never retracted. Adding hard clauses to a live
// z3::optimize and re-running check() is exactly Z3's incremental mode; the
// solver keeps its learned clauses and the unchanged encoding across rounds.
// Anything tentative should use SmtSession::push()/pop() instead.
//
// Thread-safety: a SubproblemSolver owns its own z3::context, so distinct
// solvers are safe to drive from distinct threads concurrently (the parallel
// per-destination engine keeps one solver per destination group and each
// worker touches only its own). A single solver must not be shared across
// threads without external ordering.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aed.hpp"

namespace aed {

/// Wall-clock seconds of one solve() call, by phase. sketch/encode are zero
/// on incremental re-solves (nothing is rebuilt).
struct SubproblemPhases {
  double sketchSeconds = 0.0;
  double encodeSeconds = 0.0;
  double solveSeconds = 0.0;
  double extractSeconds = 0.0;
  double total() const {
    return sketchSeconds + encodeSeconds + solveSeconds + extractSeconds;
  }
};

/// Outcome of one solve() call on one subproblem.
struct SubResult {
  SubOutcome outcome = SubOutcome::kError;
  ErrorCode code = ErrorCode::kNone;
  std::string detail;

  bool sat = false;
  Patch patch;
  std::vector<std::string> satisfied;
  std::vector<std::string> violated;
  std::vector<std::string> activeDeltas;  // for blocking on repair
  double seconds = 0.0;
  std::size_t deltaCount = 0;
  SubproblemPhases phases;
  /// True when the solve was served by the session's incremental warm-start
  /// fast path (single SAT query at the previous optimum, no MaxSMT run).
  bool warmStart = false;
  /// Introspection (§12): which ladder rung answered this solve and why,
  /// plus Z3 effort counters and encoding sizes for the call. Totals across
  /// the rounds of one subproblem accumulate in SubproblemReport.
  SolveRung rung = SolveRung::kNone;
  std::string rungReason;
  SolverStats solverStats;
};

/// The options synthesize() gives every SubproblemSolver when the policy
/// set splits into `groups` destination groups: with more than one group,
/// each sketch is confined to destination-local changes so parallel
/// solutions cannot conflict (§8; see SketchOptions::destinationScoped).
AedOptions subproblemOptions(const AedOptions& options, std::size_t groups);

class SubproblemSolver {
 public:
  /// `tree` and `topo` must outlive the solver; policies/objectives/options
  /// are copied (options.objectiveWeightScale, defaultMinimality, anytime,
  /// randomPhaseSeed, sketch and encoder options are honored).
  SubproblemSolver(const ConfigTree& tree, const Topology& topo,
                   PolicySet policies, std::vector<Objective> objectives,
                   const AedOptions& options);
  ~SubproblemSolver();

  SubproblemSolver(const SubproblemSolver&) = delete;
  SubproblemSolver& operator=(const SubproblemSolver&) = delete;

  /// Solves (round 0) or incrementally re-solves (repair rounds) the
  /// subproblem. `blockedDeltaSets` is the monotonically growing list of
  /// delta combinations that failed simulator validation, shared across
  /// rounds; only the suffix not yet asserted is pushed into the solver.
  /// The deadline is re-applied on every call, so each round gets its own
  /// budget share. `injectUnknown` forces the next full MaxSMT verdict to
  /// "unknown" (deterministic fault injection).
  SubResult solve(
      const std::vector<std::vector<std::string>>& blockedDeltaSets,
      const Deadline& deadline, bool injectUnknown = false);

  /// Pre-check fast path (DESIGN.md §13), for a group whose policies
  /// already hold on the input tree. Builds only the sketch and returns the
  /// proven optimum when the empty patch is it: per-delta minimality is on
  /// (so any active delta costs weight) and every desugared user objective
  /// holds with every delta off. That answer is outcome kOk, an empty patch,
  /// every objective label satisfied, rung kPrecheck — and no z3::context is
  /// ever created. Otherwise returns nullopt and keeps the sketch for the
  /// solve() that must follow.
  std::optional<SubResult> precheck();

  /// Completed solve() calls; 0 means the next call pays sketch + encode.
  int rounds() const { return rounds_; }

 private:
  /// Builds the sketch unless precheck() already did.
  void ensureSketch(SubproblemPhases& phases);
  /// Builds the sketch, session, encoding, and objective softs (first call).
  void ensureEncoded(SubResult& result);

  const ConfigTree& tree_;
  const Topology& topo_;
  PolicySet policies_;
  std::vector<Objective> objectives_;
  AedOptions options_;

  // Construction order matters for destruction: the encoder references the
  // session and the sketch, so it is declared last (destroyed first).
  std::unique_ptr<SmtSession> session_;
  std::optional<Sketch> sketch_;
  std::unique_ptr<Encoder> encoder_;

  /// Sketch build time of an unsuccessful precheck(), reported by the next
  /// solve().
  double carriedSketchSeconds_ = 0.0;
  /// Prefix of the shared blocked-delta list already asserted as hard
  /// clauses in the live solver.
  std::size_t blockedApplied_ = 0;
  int rounds_ = 0;
};

}  // namespace aed
