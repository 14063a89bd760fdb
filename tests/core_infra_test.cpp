/// Tests for the core-module infrastructure: SoftTracker selector
/// bookkeeping, IncrementalAtMost / AssumableAtMost reuse helpers, and
/// the Proposition 1 & 2 bound utilities (disjoint cores / blocking
/// upper bound).

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "cnf/oracle.h"
#include "core/bounds.h"
#include "core/incremental_atmost.h"
#include "core/soft_tracker.h"
#include "encodings/sink.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"

namespace msu {
namespace {

TEST(SoftTracker, SelectorsEnforceAndRelax) {
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_EQ(t.numSoft(), 3);
  EXPECT_EQ(t.numOriginalVars(), 2);

  // All enforced: clauses 0 and 1 conflict.
  ASSERT_EQ(s.solve(t.assumptions()), lbool::False);
  const std::vector<int> core = t.coreSoftIndices(s.core());
  ASSERT_FALSE(core.empty());
  for (int i : core) EXPECT_LT(i, 2);  // clause 2 is irrelevant

  // Relax the core: now satisfiable.
  for (int i : core) t.relax(i);
  EXPECT_EQ(t.numRelaxed(), static_cast<int>(core.size()));
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  EXPECT_EQ(t.blockingLits().size(), core.size());
}

TEST(SoftTracker, RelaxedFalsifiedCostMatchesModel) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(0);
  t.relax(1);
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  // Exactly one of the two unit clauses is falsified by any assignment.
  EXPECT_EQ(t.relaxedFalsifiedCost(w, s.model()), 1);
  EXPECT_GE(t.blockingAssignedTrue(s.model()), 1);
}

TEST(SoftTracker, SoftOfVarMapsOnlySelectors) {
  WcnfFormula w(3);
  w.addSoft({posLit(0), posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_FALSE(t.softOfVar(0).has_value());
  EXPECT_FALSE(t.softOfVar(2).has_value());
  EXPECT_EQ(t.softOfVar(t.selector(0).var()), 0);
  EXPECT_EQ(t.softOfVar(t.selector(1).var()), 1);
  EXPECT_FALSE(t.softOfVar(999).has_value());
}

/// True for the encodings whose one structure grows in place.
bool growsInPlace(CardEncoding enc) {
  return enc == CardEncoding::Sorter || enc == CardEncoding::Totalizer;
}

TEST(IncrementalAtMost, GrowingSetWithTighteningBounds) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Sequential,
        CardEncoding::Totalizer, CardEncoding::CardNet}) {
    for (bool reuse : {true, false}) {
      Solver s;
      SolverSink sink(s);
      std::vector<Lit> lits;
      for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
      IncrementalAtMost inc(enc, reuse);

      std::vector<Lit> firstFour(lits.begin(), lits.begin() + 4);
      inc.assertAtMost(sink, firstFour, 2);
      inc.assertAtMost(sink, lits, 3);  // grown set
      inc.assertAtMost(sink, lits, 2);  // tightened

      // Now: at most 2 of first four, at most 2 of all six.
      auto popOk = [&](std::uint32_t mask) {
        const int firstPop = std::popcount(mask & 0xFu);
        const int allPop = std::popcount(mask);
        return firstPop <= 2 && allPop <= 2;
      };
      for (std::uint32_t mask = 0; mask < 64; ++mask) {
        std::vector<Lit> assumps;
        for (int i = 0; i < 6; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True, popOk(mask))
            << toString(enc) << " reuse=" << reuse << " mask=" << mask;
      }
      if (reuse && growsInPlace(enc)) {
        EXPECT_EQ(s.stats().retired_scopes, 0) << toString(enc);
      }
    }
  }
}

TEST(IncrementalAtMost, AssumedBoundsFollowGrowthAndLoosening) {
  // msu3's pattern: the literal set grows, the bound loosens, and only
  // the latest bound holds. A trivial bound parks the structure.
  struct Step {
    int size;
    int k;
  };
  const Step steps[] = {{2, 0}, {4, 1}, {4, 2}, {6, 3},
                        {6, 6}, {6, 3}, {6, 4}};
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Sequential,
        CardEncoding::Totalizer, CardEncoding::CardNet}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
    IncrementalAtMost inc(enc, /*reuse=*/true);
    for (const Step& step : steps) {
      const std::vector<Lit> set(lits.begin(), lits.begin() + step.size);
      const std::optional<Lit> bound = inc.assumeAtMost(sink, set, step.k);
      const std::uint32_t setMask = (1u << step.size) - 1;
      for (std::uint32_t mask = 0; mask < 64; ++mask) {
        std::vector<Lit> assumps;
        for (int i = 0; i < 6; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        if (bound) assumps.push_back(*bound);
        EXPECT_EQ(s.solve(assumps) == lbool::True,
                  std::popcount(mask & setMask) <= step.k)
            << toString(enc) << " size=" << step.size << " k=" << step.k
            << " mask=" << mask;
      }
    }
    if (growsInPlace(enc)) {
      EXPECT_EQ(s.stats().retired_scopes, 0) << toString(enc);
    }
  }
}

TEST(SoftTracker, BlockingLitsFollowRelaxationOrder) {
  // Regression: blocking literals must be append-only in *relaxation*
  // order — soft-index order breaks incremental totalizer extension
  // (a later-relaxed lower index used to shift the whole vector).
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(2);
  const std::vector<Lit> first = t.blockingLits();
  t.relax(0);  // lower soft index relaxed later
  const std::vector<Lit> second = t.blockingLits();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], first[0]) << "prefix changed: not append-only";
  EXPECT_EQ(second[1], t.selector(0));
}

TEST(IncrementalAtMost, TotalizerSurvivesNonPrefixGrowth) {
  // Even if a caller hands over literals that do NOT extend the previous
  // set as a prefix, the constraint must stay correct (fallback path).
  Solver s;
  SolverSink sink(s);
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) lits.push_back(posLit(s.newVar()));
  IncrementalAtMost inc(CardEncoding::Totalizer, /*reuse=*/true);
  const std::vector<Lit> firstSet{lits[2], lits[3]};
  inc.assertAtMost(sink, firstSet, 1);
  const std::vector<Lit> secondSet{lits[0], lits[2], lits[3]};  // no prefix
  inc.assertAtMost(sink, secondSet, 1);
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<Lit> assumps;
    for (int i = 0; i < 4; ++i) {
      assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
    }
    const bool okFirst =
        ((mask >> 2) & 1u) + ((mask >> 3) & 1u) <= 1;
    const bool okSecond =
        (mask & 1u) + ((mask >> 2) & 1u) + ((mask >> 3) & 1u) <= 1;
    EXPECT_EQ(s.solve(assumps) == lbool::True, okFirst && okSecond)
        << "mask " << mask;
  }
}

TEST(AssumableAtMost, BoundLitsEnforceWhenAssumed) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Sequential,
        CardEncoding::Totalizer}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 5; ++i) lits.push_back(posLit(s.newVar()));
    AssumableAtMost am(sink, lits, enc);

    EXPECT_FALSE(am.boundLit(5).has_value());  // trivial
    for (int k : {1, 3, 2}) {  // out of order on purpose
      const std::optional<Lit> b = am.boundLit(k);
      ASSERT_TRUE(b.has_value());
      for (std::uint32_t mask = 0; mask < 32; ++mask) {
        std::vector<Lit> assumps{*b};
        for (int i = 0; i < 5; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True,
                  std::popcount(mask) <= k)
            << toString(enc) << " k=" << k << " mask=" << mask;
      }
    }
    // Without any bound assumption everything is allowed.
    std::vector<Lit> all(lits);
    EXPECT_EQ(s.solve(all), lbool::True) << toString(enc);
  }
}

TEST(Bounds, DisjointCoresOnPigeonhole) {
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(4, 3));
  const DisjointCoresResult r = disjointCores(w);
  ASSERT_TRUE(r.complete);
  ASSERT_GE(r.cores.size(), 1u);
  // Proposition 1: cost >= K. PHP optimum is 1, so exactly one disjoint
  // core can exist.
  EXPECT_EQ(r.costLowerBound(), 1);
  // Cores must be pairwise disjoint sets of clause indices.
  std::set<int> seen;
  for (const std::vector<int>& core : r.cores) {
    for (int idx : core) {
      EXPECT_TRUE(seen.insert(idx).second) << "clause in two cores";
    }
  }
}

TEST(Bounds, DisjointCoresAreUnsatSubsets) {
  const CnfFormula f = randomKSat(
      {.numVars = 8, .numClauses = 45, .clauseLen = 3, .seed = 1234});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  const DisjointCoresResult r = disjointCores(w);
  ASSERT_TRUE(r.complete);
  for (const std::vector<int>& core : r.cores) {
    EXPECT_TRUE(oracleSubsetUnsat(f, core));
  }
  // Proposition 1 sanity: lower bound below the true optimum.
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());
  EXPECT_LE(r.costLowerBound(), *truth.optimumCost);
}

TEST(Bounds, BlockingUpperBoundIsValid) {
  for (std::uint64_t seed = 10; seed <= 16; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = seed}));
    const auto ub = blockingUpperBound(w);
    ASSERT_TRUE(ub.has_value());
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    // Proposition 2: model cost is an upper bound on the optimum.
    EXPECT_GE(ub->costUpperBound, *truth.optimumCost);
    // And it is achieved by the returned model.
    EXPECT_EQ(w.cost(ub->model), ub->costUpperBound);
  }
}

TEST(Bounds, SandwichTheOptimum) {
  // LB from disjoint cores <= optimum <= UB from one blocking model.
  const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
      {.numVars = 9, .numClauses = 50, .clauseLen = 3, .seed = 777}));
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());
  const DisjointCoresResult lb = disjointCores(w);
  const auto ub = blockingUpperBound(w);
  ASSERT_TRUE(lb.complete);
  ASSERT_TRUE(ub.has_value());
  EXPECT_LE(lb.costLowerBound(), *truth.optimumCost);
  EXPECT_GE(ub->costUpperBound, *truth.optimumCost);
}

TEST(Bounds, HardUnsatGivesNoBound) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 1);
  EXPECT_FALSE(blockingUpperBound(w).has_value());
}

}  // namespace
}  // namespace msu
