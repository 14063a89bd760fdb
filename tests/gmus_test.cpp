/// Tests for group-MUS extraction (the design-debugging granularity):
///  * crafted instances with known group MUSes;
///  * background-only unsatisfiability yields the empty group MUS;
///  * the extractor produces verified minimal group sets on randomized
///    grouped formulas, with and without a background;
///  * a miniature gate-grouped debugging scenario: the group MUS pins
///    the faulty gate;
///  * budget behaviour.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "gen/random_cnf.h"
#include "mus/gcnf_io.h"
#include "mus/mus.h"

namespace msu {
namespace {

/// Groups: {x}{~x} | {y}{~y} — two independent contradictions, each a
/// singleton group pair.
GroupCnf twoContradictions() {
  GroupCnf g(2);
  const int g0 = g.addGroup();
  const int g1 = g.addGroup();
  const int g2 = g.addGroup();
  const int g3 = g.addGroup();
  g.addToGroup(g0, {posLit(0)});
  g.addToGroup(g1, {negLit(0)});
  g.addToGroup(g2, {posLit(1)});
  g.addToGroup(g3, {negLit(1)});
  return g;
}

TEST(GroupMusTest, FindsAPairAmongTwoContradictions) {
  const GroupCnf g = twoContradictions();
  const MusResult r = extractMus(g);
  ASSERT_TRUE(r.minimal);
  EXPECT_EQ(r.size(), 2);
  EXPECT_TRUE(r.groups == (std::vector<int>{0, 1}) ||
              r.groups == (std::vector<int>{2, 3}));
  EXPECT_TRUE(isMus(g, r.groups));
}

TEST(GroupMusTest, BackgroundUnsatGivesEmptyGroupMus) {
  GroupCnf g(1);
  g.addBackground({posLit(0)});
  g.addBackground({negLit(0)});
  const int g0 = g.addGroup();
  g.addToGroup(g0, {posLit(0)});
  const MusResult r = extractMus(g);
  ASSERT_TRUE(r.minimal);
  EXPECT_TRUE(r.groups.empty());
}

TEST(GroupMusTest, SatisfiableInputGivesNonMinimalEmpty) {
  GroupCnf g(2);
  const int g0 = g.addGroup();
  g.addToGroup(g0, {posLit(0), posLit(1)});
  const MusResult r = extractMus(g);
  EXPECT_FALSE(r.minimal);
  EXPECT_TRUE(r.groups.empty());
}

TEST(GroupMusTest, MultiClauseGroupsAreAllOrNothing) {
  // Group 0 = {x, y}, group 1 = {~x ∨ ~y}: together SAT (x=1,y=1 fails
  // group 1... actually x=1,y=1 falsifies ~x∨~y) — craft carefully:
  // group 0 forces x and y; group 1 forbids both; they conflict only
  // jointly. Group 2 is irrelevant padding.
  GroupCnf g(3);
  const int g0 = g.addGroup();
  g.addToGroup(g0, {posLit(0)});
  g.addToGroup(g0, {posLit(1)});
  const int g1 = g.addGroup();
  g.addToGroup(g1, {negLit(0), negLit(1)});
  const int g2 = g.addGroup();
  g.addToGroup(g2, {posLit(2)});
  const MusResult r = extractMus(g);
  ASSERT_TRUE(r.minimal);
  EXPECT_EQ(r.groups, (std::vector<int>{0, 1}));
  static_cast<void>(g2);
}

TEST(GroupMusTest, RandomGroupedFormulasYieldVerifiedGroupMuses) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CnfFormula f = randomUnsat3Sat(9, 8.0, seed * 3);
    // Partition clauses round-robin into 6 groups.
    GroupCnf g(f.numVars());
    for (int i = 0; i < 6; ++i) static_cast<void>(g.addGroup());
    for (int i = 0; i < f.numClauses(); ++i) {
      g.addToGroup(i % 6, f.clause(i));
    }
    const MusResult r = extractMus(g);
    if (!r.minimal && r.groups.empty()) continue;  // satisfiable draw
    ASSERT_TRUE(r.minimal) << "seed " << seed;
    EXPECT_TRUE(isMus(g, r.groups)) << "seed " << seed;
  }
}

TEST(GroupMusTest, RotationKeepsTheBackgroundSatisfied) {
  // A rotated model proves a group critical only while it still
  // satisfies the background. Every third clause goes to the background,
  // the others round-robin into 4, 8 or 16 groups.
  int minimal = 0;
  std::int64_t rotated = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CnfFormula f = randomUnsat3Sat(10, 8.0, seed);
    for (const int numGroups : {4, 8, 16}) {
      GroupCnf g(f.numVars());
      for (int i = 0; i < numGroups; ++i) static_cast<void>(g.addGroup());
      for (int i = 0; i < f.numClauses(); ++i) {
        if (i % 3 == 2) {
          g.addBackground(f.clause(i));
        } else {
          g.addToGroup(i % numGroups, f.clause(i));
        }
      }
      MusOptions opts;
      opts.modelRotation = true;
      const MusResult r = extractMus(g, opts);
      if (!r.minimal) continue;  // satisfiable draw
      ++minimal;
      rotated += r.rotationCriticals;
      EXPECT_TRUE(isMus(g, r.groups))
          << "seed " << seed << ", " << numGroups << " groups";
    }
  }
  EXPECT_GT(minimal, 100);
  EXPECT_GT(rotated, 0);
}

TEST(GroupMusTest, GateGroupedDebuggingPinsTheFaultyGate) {
  // Miniature debugging scenario. Correct design: g1: a = in1 AND in2,
  // g2: b = NOT a, output b. Faulty chip observed: in1=1, in2=1, b=1
  // (correct answer is b=0). Background: observed I/O. Groups: the two
  // gates' CNF. The AND gate is consistent with the observation; only
  // the inverter contradicts it, so the group MUS is {inverter} alone —
  // MaxSAT/MUS-style fault localization at gate granularity.
  // Vars: 0=in1, 1=in2, 2=a, 3=b.
  GroupCnf g(4);
  g.addBackground({posLit(0)});  // in1 = 1
  g.addBackground({posLit(1)});  // in2 = 1
  g.addBackground({posLit(3)});  // observed b = 1
  const int andGate = g.addGroup();
  g.addToGroup(andGate, {negLit(0), negLit(1), posLit(2)});
  g.addToGroup(andGate, {posLit(0), negLit(2)});
  g.addToGroup(andGate, {posLit(1), negLit(2)});
  const int invGate = g.addGroup();
  g.addToGroup(invGate, {posLit(2), posLit(3)});
  g.addToGroup(invGate, {negLit(2), negLit(3)});

  const MusResult r = extractMus(g);
  ASSERT_TRUE(r.minimal);
  EXPECT_EQ(r.groups, (std::vector<int>{andGate, invGate}));
  // Both gates participate: AND forces a=1, inverter then forces b=0,
  // contradicting the observation. Removing either group restores
  // consistency — the debugger reports both as candidate fault sites.
  EXPECT_TRUE(isMus(g, r.groups));
}

TEST(GroupMusBudgetTest, BudgetExpiryReturnsUnminimizedSet) {
  const CnfFormula f = randomUnsat3Sat(12, 7.5, 5);
  GroupCnf g(f.numVars());
  for (int i = 0; i < 8; ++i) static_cast<void>(g.addGroup());
  for (int i = 0; i < f.numClauses(); ++i) g.addToGroup(i % 8, f.clause(i));
  MusOptions opts;
  opts.budget = Budget::conflicts(1);
  const MusResult r = extractMus(g, opts);
  if (!r.minimal && !r.groups.empty()) {
    EXPECT_TRUE(subsetUnsat(g, r.groups));
  }
}

TEST(GcnfIoTest, ParseBasics) {
  const GroupCnf g = parseGcnf(
      "c a comment\n"
      "p gcnf 3 4 2\n"
      "{0} 1 -2 0\n"
      "{1} 2 0\n"
      "{1} -3 0\n"
      "{2} 3 0\n");
  EXPECT_EQ(g.numVars(), 3);
  EXPECT_EQ(g.numGroups(), 2);
  EXPECT_EQ(g.background().size(), 1u);
  EXPECT_EQ(g.group(0).size(), 2u);
  EXPECT_EQ(g.group(1).size(), 1u);
  EXPECT_EQ(g.group(0)[0], (Clause{posLit(1)}));
}

TEST(GcnfIoTest, RoundTrip) {
  const GroupCnf original = twoContradictions();
  std::ostringstream out;
  writeGcnf(out, original);
  const GroupCnf reparsed = parseGcnf(out.str());
  ASSERT_EQ(reparsed.numGroups(), original.numGroups());
  EXPECT_EQ(reparsed.numVars(), original.numVars());
  for (int g = 0; g < original.numGroups(); ++g) {
    EXPECT_EQ(reparsed.group(g), original.group(g)) << "group " << g;
  }
  // Extraction results coincide as well.
  const MusResult a = extractMus(original);
  const MusResult b = extractMus(reparsed);
  ASSERT_TRUE(a.minimal);
  ASSERT_TRUE(b.minimal);
  EXPECT_EQ(a.groups, b.groups);
}

TEST(GcnfIoTest, MalformedInputsThrow) {
  EXPECT_THROW(parseGcnf("{0} 1 0\n"), GcnfError);           // no header
  EXPECT_THROW(parseGcnf("p gcnf 2 1 1\n1 0\n"), GcnfError); // missing tag
  EXPECT_THROW(parseGcnf("p gcnf 2 1 1\n{2} 1 0\n"), GcnfError);  // range
  EXPECT_THROW(parseGcnf("p gcnf 2 1 1\n{1} 5 0\n"), GcnfError);  // lit
  EXPECT_THROW(parseGcnf("p gcnf 2 1 1\n{1} -9223372036854775808 0\n"),
               GcnfError);  // lit: INT64_MIN
  EXPECT_THROW(parseGcnf("p gcnf 2 1 1\n{1} 1\n"), GcnfError);  // truncated
  EXPECT_THROW(parseGcnf("p cnf 2 1\n"), GcnfError);          // wrong fmt
}

TEST(GroupCnfTest, VariableUniverseGrowsOnDemand) {
  GroupCnf g;
  const int g0 = g.addGroup();
  g.addToGroup(g0, {posLit(5)});
  EXPECT_EQ(g.numVars(), 6);
  g.addBackground({negLit(9)});
  EXPECT_EQ(g.numVars(), 10);
}

}  // namespace
}  // namespace msu
