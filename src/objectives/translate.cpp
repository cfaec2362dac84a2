#include "objectives/translate.hpp"

#include <map>
#include <optional>
#include <set>

#include "simulate/simulator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

// A desugared objective group: the subtree roots sharing a GROUPBY value and
// the deltas under each root.
struct Group {
  std::string key;  // GROUPBY attribute value ("" without GROUPBY)
  // root path -> deltas under it.
  std::map<std::string, std::vector<const DeltaVar*>> roots;
};

std::map<std::string, Group> collectGroups(const Sketch& sketch,
                                           const Objective& objective) {
  std::map<std::string, Group> groups;
  for (const DeltaVar& delta : sketch.deltas()) {
    const auto root = objective.xpath.rootOf(delta.virtualPath());
    if (!root) continue;
    const std::string key =
        objective.groupBy.empty()
            ? ""
            : XPath::rootAttr(*root, objective.groupBy);
    Group& group = groups[key];
    group.key = key;
    group.roots[*root].push_back(&delta);
  }
  return groups;
}

/// Visits every desugared objective in registration order with its label;
/// `group` is null for an objective that selects nothing.
template <typename Visit>
void forEachDesugared(const Sketch& sketch,
                      const std::vector<Objective>& objectives, Visit&& visit) {
  for (const Objective& objective : objectives) {
    const auto groups = collectGroups(sketch, objective);
    if (groups.empty()) {
      visit(objective, objective.label + " [no matches]",
            static_cast<const Group*>(nullptr));
      continue;
    }
    for (const auto& [key, group] : groups) {
      std::string label = objective.label;
      if (!objective.groupBy.empty()) {
        label += " [" + objective.groupBy + "=" + key + "]";
      }
      visit(objective, label, &group);
    }
  }
}

bool isRemoval(const DeltaVar& delta) {
  return deltaKindName(delta.kind).rfind("rm-", 0) == 0;
}

// EQUATE aligns deltas across the group's subtrees by their position
// relative to the subtree root.
std::map<std::string, std::vector<const DeltaVar*>> alignByPosition(
    const Group& group) {
  std::map<std::string, std::vector<const DeltaVar*>> byKey;
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      byKey[delta->relativeKey(root)].push_back(delta);
    }
  }
  return byKey;
}

/// Does the constraint built for `group` hold with every delta inactive?
/// Mirrors the three *Constraint() functions below.
bool holdsWithDeltasOff(const Objective& objective, const Group& group,
                        const ConfigTree& tree) {
  switch (objective.restriction) {
    case Restriction::kNoModify:
      return true;  // no selected delta is active
    case Restriction::kEliminate:
      // Additions stay off, but every removal delta is required on.
      for (const auto& [root, deltas] : group.roots) {
        for (const DeltaVar* delta : deltas) {
          if (isRemoval(*delta)) return false;
        }
      }
      return true;
    case Restriction::kEquate: {
      if (group.roots.size() < 2) return true;
      // Walks the pairs equateConstraint() relates. With every delta off the
      // activity equalities hold, and all add-rule action variables can be
      // set equal. Each lp value becomes a constant: a set-lp rule keeps its
      // current lp, and an inactive bgp rule addition takes the default lp
      // (one value its unconstrained variable admits). The constraint holds
      // if every related pair of constants agrees.
      const auto lpWithDeltasOff =
          [&tree](const DeltaVar& delta) -> std::optional<int> {
        if (delta.kind == DeltaKind::kSetRouteFilterRuleLp) {
          const Node* rule = tree.byPath(delta.nodePath);
          require(rule != nullptr, "lp delta for unknown rule: " +
                                       delta.nodePath);
          return rule->intAttr("lp", kDefaultLp);
        }
        if (delta.kind == DeltaKind::kAddRouteFilterRule &&
            delta.procType == "bgp") {
          return kDefaultLp;
        }
        return std::nullopt;
      };
      for (const auto& [key, entries] : alignByPosition(group)) {
        if (entries.size() < group.roots.size()) continue;
        const auto lp1 = lpWithDeltasOff(*entries.front());
        for (std::size_t i = 1; i < entries.size(); ++i) {
          const auto lp2 = lpWithDeltasOff(*entries[i]);
          if (lp1 && lp2 && *lp1 != *lp2) return false;
        }
      }
      return true;
    }
  }
  return false;
}

z3::expr noModifyConstraint(Encoder& encoder, const Group& group) {
  z3::expr any = encoder.session().boolVal(false);
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      any = any || encoder.deltaActive(*delta);
    }
  }
  return !any;
}

z3::expr eliminateConstraint(Encoder& encoder, const Group& group) {
  z3::expr out = encoder.session().boolVal(true);
  // No additions; every node that has a removal delta must be removed.
  // (Modification deltas — flips, lp changes — are irrelevant once the node
  // is gone; nodes whose removal deltas were pruned cannot be eliminated
  // through this objective.)
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      if (isAddKind(delta->kind)) {
        out = out && !encoder.deltaActive(*delta);
      } else if (isRemoval(*delta)) {
        out = out && encoder.deltaActive(*delta);
      }
    }
  }
  return out;
}

z3::expr equateConstraint(Encoder& encoder, const Group& group) {
  // Corresponding deltas must take equal values, deltas without a
  // counterpart in every subtree must stay inactive.
  z3::expr out = encoder.session().boolVal(true);
  if (group.roots.size() < 2) return out;  // single clone: trivially equal

  const std::size_t cloneCount = group.roots.size();
  for (const auto& [key, entries] : alignByPosition(group)) {
    if (entries.size() < cloneCount) {
      // Asymmetric position: at least one clone lacks this node; keeping the
      // clones identical means not touching it anywhere.
      for (const DeltaVar* entry : entries) {
        out = out && !encoder.deltaActive(*entry);
      }
      continue;
    }
    const DeltaVar& first = *entries.front();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const DeltaVar& other = *entries[i];
      out = out && (encoder.deltaActive(first) == encoder.deltaActive(other));
      // Value-level equality so clones receive the *same* change, not just
      // "a" change.
      const auto lp1 = encoder.lpValueExpr(first);
      const auto lp2 = encoder.lpValueExpr(other);
      if (lp1 && lp2) out = out && (*lp1 == *lp2);
      if (first.kind == DeltaKind::kAddRouteFilterRule ||
          first.kind == DeltaKind::kAddPacketFilterRule) {
        out = out &&
              (encoder.addAllowVar(first) == encoder.addAllowVar(other));
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> addObjectives(
    Encoder& encoder, const std::vector<Objective>& objectives) {
  std::vector<std::string> labels;
  forEachDesugared(
      encoder.sketch(), objectives,
      [&](const Objective& objective, const std::string& label,
          const Group* group) {
        // Nothing selected: the objective is vacuously satisfied; register a
        // trivially-true soft constraint so reports stay complete.
        z3::expr constraint = encoder.session().boolVal(true);
        if (group != nullptr) {
          switch (objective.restriction) {
            case Restriction::kNoModify:
              constraint = noModifyConstraint(encoder, *group);
              break;
            case Restriction::kEliminate:
              constraint = eliminateConstraint(encoder, *group);
              break;
            case Restriction::kEquate:
              constraint = equateConstraint(encoder, *group);
              break;
          }
        }
        encoder.session().addSoft(constraint, objective.weight, label);
        labels.push_back(label);
      });
  logInfo() << "registered " << labels.size()
            << " desugared objective soft constraints";
  return labels;
}

std::vector<DesugaredObjective> desugarObjectives(
    const Sketch& sketch, const ConfigTree& tree,
    const std::vector<Objective>& objectives) {
  std::vector<DesugaredObjective> out;
  forEachDesugared(sketch, objectives,
                   [&](const Objective& objective, const std::string& label,
                       const Group* group) {
                     out.push_back(DesugaredObjective{
                         label, group == nullptr ||
                                    holdsWithDeltasOff(objective, *group,
                                                       tree)});
                   });
  return out;
}

void addPerDeltaMinimality(Encoder& encoder, unsigned weight) {
  for (const DeltaVar& delta : encoder.sketch().deltas()) {
    encoder.session().addSoft(!encoder.deltaActive(delta), weight,
                              "min-change:" + delta.name,
                              SmtSession::SoftKind::kMinimality);
  }
}

}  // namespace aed
