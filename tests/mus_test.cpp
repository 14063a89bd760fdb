/// Tests for the MUS extraction / MCS enumeration module:
///  * the extractor returns genuine MUSes (oracle-validated minimality),
///    each one of the MUSes the full enumeration finds;
///  * MCS enumeration is exhaustive, minimal, and size-ordered;
///  * hitting-set duality: MUSes == minimal hitting sets of MCSes, and
///    the smallest MCS size equals the MaxSAT optimum cost (the paper's
///    §2.3 relationship made executable);
///  * budget expiry degrades gracefully (unsat-but-unminimized result).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cnf/oracle.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "mus/mcs.h"
#include "mus/mus.h"

namespace msu {
namespace {

/// x1, ¬x1∨¬x2, x2, ¬x1∨¬x3, x3, ¬x2∨¬x3, x1∨¬x4, ¬x1∨x4 — the paper's
/// Example 2 formula; clauses 0..5 contain two overlapping MUSes.
CnfFormula paperExample2() {
  CnfFormula f(4);
  const Lit x1 = posLit(0), x2 = posLit(1), x3 = posLit(2), x4 = posLit(3);
  f.addClause({x1});
  f.addClause({~x1, ~x2});
  f.addClause({x2});
  f.addClause({~x1, ~x3});
  f.addClause({x3});
  f.addClause({~x2, ~x3});
  f.addClause({x1, ~x4});
  f.addClause({~x1, x4});
  return f;
}

/// Minimal unsat core: (a)(¬a) plus satisfiable padding.
CnfFormula tinyUnsat() {
  CnfFormula f(3);
  f.addClause({posLit(0)});
  f.addClause({negLit(0)});
  f.addClause({posLit(1), posLit(2)});
  f.addClause({negLit(1), posLit(2)});
  return f;
}

TEST(MusExtractorTest, TinyUnsatFindsTheUniqueMus) {
  const MusResult r = extractMus(GroupCnf::perClause(tinyUnsat()));
  EXPECT_TRUE(r.minimal);
  EXPECT_EQ(r.groups, (std::vector<int>{0, 1}));
}

TEST(MusExtractorTest, PaperExample2YieldsSizeThreeMus) {
  const GroupCnf f = GroupCnf::perClause(paperExample2());
  const MusResult r = extractMus(f);
  ASSERT_TRUE(r.minimal);
  // Both MUSes of the formula have exactly three clauses
  // ({0,1,2} and {2,3,4} -- via {x2},{x3},{¬x2∨¬x3} it is {2,4,5}).
  EXPECT_EQ(r.size(), 3);
  EXPECT_TRUE(isMus(f, r.groups));
}

TEST(MusExtractorTest, PigeonholeMusIsWholeFormula) {
  // PHP(n+1, n) is minimally unsatisfiable: the MUS is everything.
  const CnfFormula f = pigeonhole(3, 2);
  const MusResult r = extractMus(GroupCnf::perClause(f));
  ASSERT_TRUE(r.minimal);
  EXPECT_EQ(r.size(), f.numClauses());
}

TEST(MusExtractorTest, SatisfiableInputYieldsEmptyNonMinimal) {
  CnfFormula f(2);
  f.addClause({posLit(0), posLit(1)});
  f.addClause({negLit(0)});
  const MusResult r = extractMus(GroupCnf::perClause(f));
  EXPECT_FALSE(r.minimal);
  EXPECT_TRUE(r.groups.empty());
}

TEST(MusExtractorTest, RandomUnsatInstancesYieldOracleCheckedMuses) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const CnfFormula f = randomUnsat3Sat(10, 8.5, seed);
    if (!oracleUnsat(f)) continue;  // the generator is probabilistic
    const GroupCnf g = GroupCnf::perClause(f);
    const MusResult r = extractMus(g);
    ASSERT_TRUE(r.minimal) << "seed " << seed;
    EXPECT_TRUE(oracleSubsetUnsat(f, r.groups)) << "seed " << seed;
    EXPECT_TRUE(isMus(g, r.groups)) << "seed " << seed;
  }
}

TEST(MusDeletionTest, ModelRotationMarksCriticalsWithoutExtraCalls) {
  // On PHP every clause is critical; rotation should find some of them
  // without dedicated SAT calls.
  const GroupCnf f = GroupCnf::perClause(pigeonhole(4, 3));
  MusOptions with;
  with.modelRotation = true;
  MusOptions without;
  without.modelRotation = false;
  const MusResult a = extractMus(f, with);
  const MusResult b = extractMus(f, without);
  ASSERT_TRUE(a.minimal);
  ASSERT_TRUE(b.minimal);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_GT(a.rotationCriticals, 0);
  EXPECT_LT(a.satCalls, b.satCalls);
}

TEST(MusBudgetTest, ExpiredBudgetReturnsUnminimizedUnsatSubset) {
  const CnfFormula f = randomUnsat3Sat(14, 7.0, 3);
  MusOptions opts;
  opts.budget = Budget::conflicts(1);
  const MusResult r = extractMus(GroupCnf::perClause(f), opts);
  // Either it finished within the budget (tiny instances can) or the
  // returned set must still be unsatisfiable.
  if (!r.minimal && !r.groups.empty()) {
    EXPECT_TRUE(oracleSubsetUnsat(f, r.groups));
  }
}

TEST(SubsetUnsatTest, AgreesWithOracleOnSubsets) {
  const GroupCnf f = GroupCnf::perClause(paperExample2());
  const std::vector<int> mus{0, 1, 2};
  const std::vector<int> sat{0, 2, 4};
  EXPECT_TRUE(subsetUnsat(f, mus));
  EXPECT_FALSE(subsetUnsat(f, sat));
  EXPECT_TRUE(isMus(f, mus));
  EXPECT_FALSE(isMus(f, std::vector<int>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------
// MCS enumeration
// ---------------------------------------------------------------------

TEST(McsTest, TinyUnsatHasTwoSingletonMcses) {
  const CnfFormula f = tinyUnsat();
  const McsResult r = enumerateMcses(f);
  ASSERT_TRUE(r.complete);
  // Removing either unit of the (a)(¬a) pair restores satisfiability.
  EXPECT_EQ(r.mcses,
            (std::vector<std::vector<int>>{{0}, {1}}));
  EXPECT_EQ(r.minSize(), 1);
}

TEST(McsTest, SatisfiableInputYieldsEmptyComplete) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({posLit(1)});
  const McsResult r = enumerateMcses(f);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.mcses.empty());
  EXPECT_EQ(r.minSize(), -1);
}

TEST(McsTest, EveryMcsIsMinimalAndCorrecting) {
  const CnfFormula f = paperExample2();
  const McsResult r = enumerateMcses(f);
  ASSERT_TRUE(r.complete);
  ASSERT_FALSE(r.mcses.empty());
  std::vector<int> all(static_cast<std::size_t>(f.numClauses()));
  for (int i = 0; i < f.numClauses(); ++i) all[static_cast<std::size_t>(i)] = i;
  for (const auto& mcs : r.mcses) {
    // Removing the MCS restores satisfiability...
    std::vector<int> rest;
    std::set_difference(all.begin(), all.end(), mcs.begin(), mcs.end(),
                        std::back_inserter(rest));
    EXPECT_FALSE(oracleSubsetUnsat(f, rest));
    // ... and it is minimal: putting any one clause back keeps it UNSAT.
    for (int put : mcs) {
      std::vector<int> restPlus = rest;
      restPlus.push_back(put);
      std::sort(restPlus.begin(), restPlus.end());
      EXPECT_TRUE(oracleSubsetUnsat(f, restPlus));
    }
  }
}

TEST(McsTest, EnumerationIsSizeOrdered) {
  const CnfFormula f = paperExample2();
  const McsResult r = enumerateMcses(f);
  ASSERT_TRUE(r.complete);
  for (std::size_t i = 1; i < r.mcses.size(); ++i) {
    EXPECT_LE(r.mcses[i - 1].size(), r.mcses[i].size());
  }
}

TEST(McsTest, MaxCountCapStopsEarly) {
  const CnfFormula f = pigeonhole(3, 2);
  McsOptions opts;
  opts.maxCount = 2;
  const McsResult r = enumerateMcses(f, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(static_cast<int>(r.mcses.size()), 2);
}

TEST(McsTest, SmallestMcsSizeEqualsMaxSatOptimumCost) {
  // Proposition 2's bound is tight exactly at an MCS: min |MCS| == cost.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CnfFormula f = randomUnsat3Sat(9, 6.5, seed);
    const McsResult mcses = enumerateMcses(f);
    ASSERT_TRUE(mcses.complete) << "seed " << seed;
    const OracleResult opt = oracleMaxSat(WcnfFormula::allSoft(f));
    ASSERT_TRUE(opt.optimumCost.has_value());
    if (*opt.optimumCost == 0) {
      // The draw happened to be satisfiable: nothing to correct.
      EXPECT_TRUE(mcses.mcses.empty()) << "seed " << seed;
    } else {
      EXPECT_EQ(mcses.minSize(), *opt.optimumCost) << "seed " << seed;
    }
  }
}

TEST(McsTest, AgreesWithMsu4OnOptimumCost) {
  const CnfFormula f = randomUnsat3Sat(12, 6.5, 42);
  const McsResult mcses = enumerateMcses(f);
  ASSERT_TRUE(mcses.complete);
  const auto solver = makeSolver("msu4-v2");
  const MaxSatResult r = solver->solve(WcnfFormula::allSoft(f));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(mcses.minSize(), r.cost);
}

// ---------------------------------------------------------------------
// Hitting-set duality
// ---------------------------------------------------------------------

TEST(HittingSetTest, SimpleCollections) {
  EXPECT_EQ(minimalHittingSets({}), (std::vector<std::vector<int>>{{}}));
  EXPECT_EQ(minimalHittingSets({{1, 2}}),
            (std::vector<std::vector<int>>{{1}, {2}}));
  // {1,2},{2,3}: minimal hitting sets are {2} and {1,3}.
  EXPECT_EQ(minimalHittingSets({{1, 2}, {2, 3}}),
            (std::vector<std::vector<int>>{{2}, {1, 3}}));
  // A set containing an empty set cannot be hit.
  EXPECT_TRUE(minimalHittingSets({{1}, {}}).empty());
}

TEST(HittingSetTest, ResultsAreHittingAndMinimal) {
  const std::vector<std::vector<int>> sets{{1, 2, 3}, {3, 4}, {1, 4}, {2, 5}};
  const auto hs = minimalHittingSets(sets);
  ASSERT_FALSE(hs.empty());
  for (const auto& h : hs) {
    for (const auto& s : sets) {
      bool hit = false;
      for (int e : s) {
        hit = hit || std::find(h.begin(), h.end(), e) != h.end();
      }
      EXPECT_TRUE(hit);
    }
    // Minimality: dropping any element misses some set.
    for (int drop : h) {
      bool allHit = true;
      for (const auto& s : sets) {
        bool hit = false;
        for (int e : s) {
          if (e != drop &&
              std::find(h.begin(), h.end(), e) != h.end()) {
            hit = true;
          }
        }
        allHit = allHit && hit;
      }
      EXPECT_FALSE(allHit);
    }
  }
}

TEST(AllMusesTest, PaperExample2HasTheTwoKnownMuses) {
  const CnfFormula f = paperExample2();
  const AllMusesResult r = enumerateAllMuses(f);
  ASSERT_TRUE(r.complete);
  for (const auto& mus : r.muses) {
    EXPECT_TRUE(isMus(GroupCnf::perClause(f), mus));
  }
  // Clauses 6,7 (the x4 equivalence) are in no MUS.
  for (const auto& mus : r.muses) {
    EXPECT_TRUE(std::find(mus.begin(), mus.end(), 6) == mus.end());
    EXPECT_TRUE(std::find(mus.begin(), mus.end(), 7) == mus.end());
  }
}

TEST(AllMusesTest, ExtractedMusAppearsInTheFullEnumeration) {
  // Full MUS enumeration is exponential (the MCS collection of a dense
  // random instance explodes), so exercise small structured inputs.
  std::vector<CnfFormula> inputs;
  inputs.push_back(paperExample2());
  inputs.push_back(tinyUnsat());
  inputs.push_back(pigeonhole(3, 2));
  {
    // Two independent contradictions: MUSes are exactly the two pairs.
    CnfFormula f(2);
    f.addClause({posLit(0)});
    f.addClause({negLit(0)});
    f.addClause({posLit(1)});
    f.addClause({negLit(1)});
    inputs.push_back(std::move(f));
  }
  for (std::size_t which = 0; which < inputs.size(); ++which) {
    const CnfFormula& f = inputs[which];
    const AllMusesResult all = enumerateAllMuses(f);
    ASSERT_TRUE(all.complete) << "input " << which;
    ASSERT_FALSE(all.muses.empty());
    const MusResult extracted = extractMus(GroupCnf::perClause(f));
    ASSERT_TRUE(extracted.minimal);
    EXPECT_TRUE(std::find(all.muses.begin(), all.muses.end(),
                          extracted.groups) != all.muses.end())
        << "input " << which;
  }
}

TEST(AllMusesTest, DualityRoundTrip) {
  // MCSes are themselves the minimal hitting sets of the MUS collection.
  const CnfFormula f = tinyUnsat();
  const McsResult mcses = enumerateMcses(f);
  const AllMusesResult muses = enumerateAllMuses(f);
  ASSERT_TRUE(mcses.complete);
  ASSERT_TRUE(muses.complete);
  auto rehit = minimalHittingSets(muses.muses);
  std::sort(rehit.begin(), rehit.end());
  auto expected = mcses.mcses;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rehit, expected);
}

}  // namespace
}  // namespace msu
