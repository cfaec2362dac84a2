// Per-check solver introspection data (introspection layer, DESIGN.md §12).
//
// Deliberately free of any Z3 include: core/aed.hpp embeds these types in
// AedResult::subproblems so callers can see *why* a destination was solved
// the way it was (which ladder rung answered, how hard the solver worked)
// without the public API growing a z3++.h dependency. SmtSession fills them
// in from z3::stats after every check (smt/session.cpp is the only capture
// point).
#pragma once

#include <cstdint>
#include <string>

namespace aed {

/// Which rung of the solve ladder produced the answer for a subproblem
/// (DESIGN.md §5/§6): the warm-start plain-SAT probe, the full MaxSMT
/// optimum, one of the anytime degradation rungs, or the pre-check that
/// proved the empty patch optimal without a solver (DESIGN.md §13).
enum class SolveRung {
  kNone,          // no check ran (e.g. nothing to solve)
  kWarmStart,     // plain-SAT probe at the previous optimum's cost bound
  kFull,          // full MaxSMT over user + minimality objectives
  kNoMinimality,  // degraded: user objectives only
  kHardOnly,      // degraded: plain SAT over hard constraints
  kUnsat,         // hard constraints unsatisfiable (no rung can help)
  kGaveUp,        // every rung timed out / returned unknown
  kPrecheck,      // policies already hold and the empty patch satisfies
                  // every objective: the optimum, proven without Z3
};

inline const char* solveRungName(SolveRung rung) {
  switch (rung) {
    case SolveRung::kNone: return "none";
    case SolveRung::kWarmStart: return "warm-start";
    case SolveRung::kFull: return "full";
    case SolveRung::kNoMinimality: return "no-minimality";
    case SolveRung::kHardOnly: return "hard-only";
    case SolveRung::kUnsat: return "unsat";
    case SolveRung::kGaveUp: return "gave-up";
    case SolveRung::kPrecheck: return "precheck";
  }
  return "none";
}

/// Z3 effort counters and encoding sizes for the check(s) behind one
/// subproblem answer. Counters are summed across the ladder attempts of a
/// single SmtSession::check() call; sizes describe the encoding that
/// produced the final answer.
struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  double maxMemoryMb = 0.0;
  std::uint64_t vars = 0;        // boolean choice variables in the sketch
  std::uint64_t assertions = 0;  // hard + soft assertions encoded
  std::uint64_t checks = 0;      // solver check() invocations (ladder tries)

  /// Element-wise accumulate (for totals across repair rounds).
  void accumulate(const SolverStats& other) {
    conflicts += other.conflicts;
    decisions += other.decisions;
    restarts += other.restarts;
    if (other.maxMemoryMb > maxMemoryMb) maxMemoryMb = other.maxMemoryMb;
    vars = other.vars != 0 ? other.vars : vars;
    assertions = other.assertions != 0 ? other.assertions : assertions;
    checks += other.checks;
  }
};

}  // namespace aed
