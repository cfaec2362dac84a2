// Translation of management objectives into MaxSMT soft constraints (§7.2).
//
// Each objective (after GROUPBY desugaring) becomes one weighted soft
// constraint over the delta variables selected by its XPath expression:
//   NOMODIFY  — negation of the disjunction of the selected deltas;
//   ELIMINATE — conjunction of negated add deltas and non-negated remove
//               deltas;
//   EQUATE    — equality of the delta (and action-value) variables at
//               corresponding positions across the subtrees of the group.
//
// desugarObjectives() performs the same desugaring over a sketch alone, with
// no encoder and no Z3: it yields the labels addObjectives() would register
// and whether each soft constraint holds with every delta off. The
// pre-check (DESIGN.md §13) uses it to prove the empty patch optimal.
#pragma once

#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "encode/encoder.hpp"
#include "objectives/objective.hpp"
#include "sketch/sketch.hpp"

namespace aed {

/// One desugared objective as the pre-check sees it.
struct DesugaredObjective {
  std::string label;  // identical to the label addObjectives() registers
  /// The soft constraint holds when every delta is inactive (the empty
  /// patch). Judged on the concrete tree; false also means "not proven".
  bool holdsUnchanged = false;
};

/// Desugars `objectives` over `sketch` exactly as addObjectives() does, one
/// entry per soft constraint and in the same order, without an encoder.
/// `tree` must be the tree the sketch was built from: EQUATE compares the
/// current local-preference values of aligned rules in it.
std::vector<DesugaredObjective> desugarObjectives(
    const Sketch& sketch, const ConfigTree& tree,
    const std::vector<Objective>& objectives);

/// Adds one soft constraint per desugared objective to the encoder's
/// session. Returns the labels registered (one per desugared objective),
/// so callers can report satisfied/violated objectives after check().
std::vector<std::string> addObjectives(Encoder& encoder,
                                       const std::vector<Objective>& objectives);

/// The default change-minimality pressure: one unit-weight soft constraint
/// per delta preferring it inactive. This doubles as the paper's `min-lines`
/// objective (every active delta is one added/removed configuration line),
/// and it keeps the solver from inventing gratuitous changes when an
/// operator supplies few or no objectives.
void addPerDeltaMinimality(Encoder& encoder, unsigned weight = 1);

}  // namespace aed
