// The pre-check (DESIGN.md §13): a destination group whose policies already
// hold is skipped when its empty patch is provably the optimum, and solved
// otherwise. These tests pin the eligibility rule for each restriction, the
// NetComplete baseline (no minimality softs: nothing is skipped), fault
// injection into a clean group, and the reporting of skipped groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "fixtures.hpp"
#include "objectives/translate.hpp"
#include "obs/metrics.hpp"
#include "simulate/simulator.hpp"
#include "smt/session.hpp"

namespace aed {
namespace {

using aed::testing::figure1ConfigText;

std::size_t countRung(const AedResult& result, SolveRung rung) {
  return static_cast<std::size_t>(std::count_if(
      result.subproblems.begin(), result.subproblems.end(),
      [rung](const SubproblemReport& report) { return report.rung == rung; }));
}

std::size_t totalChecks(const AedResult& result) {
  std::size_t checks = 0;
  for (const SubproblemReport& report : result.subproblems) {
    checks += report.solverStats.checks;
  }
  return checks;
}

/// Replaces the first occurrence of `from` in `text` with `to`.
void replaceOnce(std::string& text, const std::string& from,
                 const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
}

/// Figure 1 with every router in BGP process 65000 and a clone of route
/// filter rf_y on one import of each router; the clone's catch-all rule sets
/// lp 20, except on D, where it sets `lpOnD`. With the process named alike,
/// the clones sit at the same position below each Router, so
/// `EQUATE //Router` aligns their rules.
std::string figure1WithRouteFilterClones(int lpOnD) {
  std::string text = figure1ConfigText();
  for (const char* as : {"65001", "65002", "65003", "65004"}) {
    replaceOnce(text, std::string("router bgp ") + as + "\n",
                "router bgp 65000\n");
  }
  const auto clone = [](int lp) {
    return " route-filter rf_y seq 20 permit any set local-preference " +
           std::to_string(lp) + "\n";
  };
  replaceOnce(text, " neighbor 10.0.3.2 remote-router C\n",
              " neighbor 10.0.3.2 remote-router C filter-in rf_y\n" + clone(20));
  replaceOnce(text, " neighbor 10.0.4.2 remote-router D\n",
              " neighbor 10.0.4.2 remote-router D filter-in rf_y\n" + clone(20));
  replaceOnce(text, " neighbor 10.0.2.1 remote-router B\n",
              " neighbor 10.0.2.1 remote-router B filter-in rf_y\n" + clone(20));
  replaceOnce(text, " neighbor 10.0.4.1 remote-router B\n",
              " neighbor 10.0.4.1 remote-router B filter-in rf_y\n" +
                  clone(lpOnD));
  return text;
}

/// Figure 1 with a static route on C towards A's subnet.
std::string figure1WithStaticRoute() {
  return figure1ConfigText() + "router static main\n route 1.0.0.0/16 10.0.3.1\n";
}

/// Labels and outcome of a full MaxSMT solve of the single group `policies`.
SubResult solveFully(const ConfigTree& tree, const PolicySet& policies,
                     const std::vector<Objective>& objectives) {
  const Topology topo = Topology::fromConfigs(tree);
  SubproblemSolver solver(tree, topo, policies, objectives, AedOptions{});
  return solver.solve({}, Deadline::unlimited());
}

TEST(Precheck, FullySatisfiedNetworkSkipsEveryGroupWithoutZ3) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              Policy::reachability(aed::testing::cls(
                                  "1.0.0.0/16", "4.0.0.0/16"))};
  ASSERT_TRUE(Simulator(tree).violations(policies).empty());
  auto objectives = objectivesMinDevices();
  for (Objective& objective : objectivesPreserveTemplates()) {
    objectives.push_back(objective);
  }
  objectives.push_back(parseObjective("NOMODIFY //Router[name=\"Nowhere\"]"));

  MetricsRegistry& metrics = MetricsRegistry::global();
  const double checksBefore = metrics.value("smt.check_seconds");
  const AedResult result = synthesize(tree, policies, objectives);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.patch.empty());
  ASSERT_EQ(result.subproblems.size(), 2u);
  for (const SubproblemReport& report : result.subproblems) {
    EXPECT_EQ(report.outcome, SubOutcome::kOk) << report.destination;
    EXPECT_EQ(report.rung, SolveRung::kPrecheck) << report.destination;
    EXPECT_FALSE(report.rungReason.empty());
  }
  EXPECT_EQ(totalChecks(result), 0u);
  EXPECT_EQ(result.stats.rungCounts[static_cast<std::size_t>(
                SolveRung::kPrecheck)],
            2u);
  EXPECT_EQ(result.stats.rungCounts[static_cast<std::size_t>(
                SolveRung::kFull)],
            0u);
  EXPECT_DOUBLE_EQ(metrics.value("smt.check_seconds"), checksBefore);
  EXPECT_GE(metrics.value("smt.rung.precheck"), 2.0);

  // The reported objectives are those a full solve of each group reports.
  std::set<std::string> expected;
  for (const auto& [dst, group] : groupByDestination(policies)) {
    const SubResult full = solveFully(
        tree, group, objectives);
    ASSERT_EQ(full.outcome, SubOutcome::kOk);
    EXPECT_TRUE(full.patch.empty());
    EXPECT_TRUE(full.violated.empty());
    expected.insert(full.satisfied.begin(), full.satisfied.end());
  }
  EXPECT_EQ(std::set<std::string>(result.satisfiedObjectives.begin(),
                                  result.satisfiedObjectives.end()),
            expected);
  EXPECT_TRUE(result.violatedObjectives.empty());
  EXPECT_TRUE(std::any_of(
      result.satisfiedObjectives.begin(), result.satisfiedObjectives.end(),
      [](const std::string& label) {
        return label.find("no matches") != std::string::npos;
      }));
}

TEST(Precheck, OnlyTheViolatedGroupIsSolved) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  const AedResult result = synthesize(tree, policies);
  ASSERT_TRUE(result.success) << result.error;
  ASSERT_EQ(result.subproblems.size(), 2u);
  for (const SubproblemReport& report : result.subproblems) {
    // P3 (destination 2.0.0.0/16) is the only violated policy.
    const bool dirty = report.destination == "2.0.0.0/16";
    EXPECT_EQ(report.rung == SolveRung::kPrecheck, !dirty)
        << report.destination;
    EXPECT_EQ(report.solverStats.checks == 0, !dirty) << report.destination;
  }
  EXPECT_FALSE(result.patch.empty());
  EXPECT_TRUE(Simulator(result.updated).violations(policies).empty());
  // Validation re-bound the pre-check's engine (one rebind) instead of
  // building a second one.
  EXPECT_EQ(result.stats.simulate.targetedInvalidations +
                result.stats.simulate.fullInvalidations,
            1u);
}

TEST(Precheck, EquateWithUnequalClonesIsSolved) {
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2()};
  const auto objectives = parseObjectives("EQUATE //Router");

  // Equal clones: the empty patch keeps them equal, so the group is skipped.
  const ConfigTree equal =
      parseNetworkConfig(figure1WithRouteFilterClones(20));
  ASSERT_TRUE(Simulator(equal).violations(policies).empty());
  const AedResult skipped = synthesize(equal, policies, objectives);
  ASSERT_TRUE(skipped.success) << skipped.error;
  EXPECT_EQ(countRung(skipped, SolveRung::kPrecheck),
            skipped.subproblems.size());

  // Unequal clones: the empty patch violates EQUATE, so it is not the
  // optimum and the group must be solved.
  const ConfigTree unequal =
      parseNetworkConfig(figure1WithRouteFilterClones(40));
  ASSERT_TRUE(Simulator(unequal).violations(policies).empty());
  const AedResult solved = synthesize(unequal, policies, objectives);
  ASSERT_TRUE(solved.success) << solved.error;
  EXPECT_EQ(countRung(solved, SolveRung::kPrecheck), 0u);
  EXPECT_GE(totalChecks(solved), 1u);
  const SubResult full = solveFully(unequal, policies, objectives);
  EXPECT_TRUE(!full.patch.empty() || !full.violated.empty());
  EXPECT_EQ(solved.satisfiedObjectives, full.satisfied);
  EXPECT_EQ(solved.patch.size(), full.patch.size());
}

TEST(Precheck, EliminateWithAnInScopeStaticRouteIsSolved) {
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2()};
  const ConfigTree tree = parseNetworkConfig(figure1WithStaticRoute());
  ASSERT_TRUE(Simulator(tree).violations(policies).empty());

  // Without the objective, the empty patch is the optimum: skipped.
  const AedResult plain = synthesize(tree, policies);
  ASSERT_TRUE(plain.success) << plain.error;
  EXPECT_EQ(countRung(plain, SolveRung::kPrecheck), plain.subproblems.size());

  // ELIMINATE needs the static route's removal delta on: solved, and the
  // solver does remove it.
  const AedResult result =
      synthesize(tree, policies, objectivesAvoidStaticRoutes());
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(countRung(result, SolveRung::kPrecheck), 0u);
  EXPECT_FALSE(result.patch.empty());
  EXPECT_TRUE(result.violatedObjectives.empty());
  EXPECT_TRUE(Simulator(result.updated).violations(policies).empty());
}

TEST(Precheck, NetCompleteBaselineWithoutMinimalitySkipsNothing) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  AedOptions options;
  options.defaultMinimality = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(countRung(result, SolveRung::kPrecheck), 0u);
  for (const SubproblemReport& report : result.subproblems) {
    EXPECT_GE(report.solverStats.checks, 1u) << report.destination;
  }
}

TEST(Precheck, FaultInjectedIntoACleanGroupStillFires) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2(),
                              aed::testing::figure1P3()};
  // Subproblem 0 (1.0.0.0/16: P1 and P2) already holds.
  {
    AedOptions options;
    options.faultInjection.kind = FaultInjection::Kind::kThrow;
    options.faultInjection.subproblem = 0;
    const AedResult result = synthesize(tree, policies, {}, options);
    ASSERT_EQ(result.subproblems.size(), 2u);
    EXPECT_EQ(result.subproblems[0].outcome, SubOutcome::kError);
    EXPECT_NE(result.subproblems[0].detail.find("fault injection"),
              std::string::npos);
    EXPECT_TRUE(result.degraded);
  }
  {
    AedOptions options;
    options.faultInjection.kind = FaultInjection::Kind::kUnknown;
    options.faultInjection.subproblem = 0;
    const AedResult result = synthesize(tree, policies, {}, options);
    ASSERT_TRUE(result.success) << result.error;
    ASSERT_EQ(result.subproblems.size(), 2u);
    EXPECT_EQ(result.subproblems[0].outcome, SubOutcome::kDegraded);
    EXPECT_NE(result.subproblems[0].rung, SolveRung::kPrecheck);
  }
}

TEST(Precheck, DesugaredLabelsMatchTheRegisteredSoftConstraints) {
  const ConfigTree tree = parseNetworkConfig(figure1WithStaticRoute());
  const Topology topo = Topology::fromConfigs(tree);
  const PolicySet policies = {aed::testing::figure1P1(),
                              aed::testing::figure1P2()};
  std::vector<Objective> objectives = objectivesMinDevices();
  for (const auto& more :
       {objectivesPreserveTemplates(), objectivesAvoidStaticRoutes(),
        objectivesMinPacketFilters(), objectivesAvoidRedistribution()}) {
    objectives.insert(objectives.end(), more.begin(), more.end());
  }
  objectives.push_back(parseObjective("NOMODIFY //Router[name=\"Nowhere\"]"));

  const Sketch sketch = buildSketch(tree, topo, policies);
  SmtSession session;
  Encoder encoder(session, tree, topo, sketch);
  encoder.encode(policies);
  const std::vector<std::string> registered = addObjectives(encoder, objectives);
  const std::vector<DesugaredObjective> desugared =
      desugarObjectives(sketch, tree, objectives);
  ASSERT_EQ(desugared.size(), registered.size());
  for (std::size_t i = 0; i < registered.size(); ++i) {
    EXPECT_EQ(desugared[i].label, registered[i]);
    // NOMODIFY always holds unchanged; the static route makes the
    // ELIMINATE group for its prefix fail.
    if (registered[i].rfind("NOMODIFY", 0) == 0) {
      EXPECT_TRUE(desugared[i].holdsUnchanged) << registered[i];
    }
    if (registered[i].find("[prefix=1.0.0.0/16]") != std::string::npos) {
      EXPECT_FALSE(desugared[i].holdsUnchanged) << registered[i];
    }
  }
}

}  // namespace
}  // namespace aed
