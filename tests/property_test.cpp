/// Randomized property tests that tie the layers together:
///  * DIMACS round-trips on random WCNF instances;
///  * budget semantics across engines (Unknown implies coherent bounds;
///    re-solving without budget reaches the optimum within the bounds);
///  * preprocessing end-to-end through an engine;
///  * normalization preserves (Max)SAT semantics;
///  * weighted duplication equals native weighted solving.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "cnf/dimacs.h"
#include "cnf/oracle.h"
#include "core/msu1.h"
#include "core/msu4.h"
#include "core/preprocess.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"

namespace msu {
namespace {

WcnfFormula randomWcnf(std::uint64_t seed, bool weighted, bool withHards) {
  std::mt19937_64 rng(seed);
  const CnfFormula f = randomKSat(
      {.numVars = 6 + static_cast<int>(rng() % 5),
       .numClauses = 15 + static_cast<int>(rng() % 20),
       .clauseLen = 2 + static_cast<int>(rng() % 2),
       .seed = rng()});
  WcnfFormula w(f.numVars());
  CnfFormula hardPart(f.numVars());
  for (int i = 0; i < f.numClauses(); ++i) {
    if (withHards && i % 5 == 0) {
      hardPart.addClause(f.clause(i));
      if (oracleSat(hardPart)) {
        w.addHard(f.clause(i));
        continue;
      }
    }
    w.addSoft(f.clause(i), weighted ? 1 + static_cast<Weight>(rng() % 4) : 1);
  }
  return w;
}

TEST(Property, DimacsWcnfRoundTripPreservesEverything) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const WcnfFormula w = randomWcnf(seed, seed % 2 == 0, seed % 3 == 0);
    const WcnfFormula v = parseDimacsWcnf(toDimacsString(w));
    ASSERT_EQ(v.numVars(), w.numVars()) << seed;
    ASSERT_EQ(v.numHard(), w.numHard()) << seed;
    ASSERT_EQ(v.numSoft(), w.numSoft()) << seed;
    for (int i = 0; i < w.numHard(); ++i) {
      EXPECT_EQ(v.hard()[i], w.hard()[i]) << seed;
    }
    for (int i = 0; i < w.numSoft(); ++i) {
      EXPECT_EQ(v.soft()[i].lits, w.soft()[i].lits) << seed;
      EXPECT_EQ(v.soft()[i].weight, w.soft()[i].weight) << seed;
    }
  }
}

TEST(Property, DimacsRoundTripPreservesOptimum) {
  for (std::uint64_t seed = 30; seed <= 40; ++seed) {
    const WcnfFormula w = randomWcnf(seed, true, true);
    const WcnfFormula v = parseDimacsWcnf(toDimacsString(w));
    const OracleResult a = oracleMaxSat(w);
    const OracleResult b = oracleMaxSat(v);
    EXPECT_EQ(a.optimumCost, b.optimumCost) << seed;
  }
}

TEST(Property, NormalizationPreservesSat) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    CnfFormula f = randomKSat({.numVars = 8, .numClauses = 30,
                               .clauseLen = 3, .seed = seed * 7});
    // Inject duplicates and a tautology to exercise the normalizer.
    f.addClause(f.clause(0));
    f.addClause({posLit(0), negLit(0)});
    const CnfFormula n = f.normalized();
    EXPECT_LE(n.numClauses(), f.numClauses());
    EXPECT_EQ(oracleSat(f).has_value(), oracleSat(n).has_value()) << seed;
  }
}

TEST(Property, BudgetUnknownHasCoherentBoundsAndFullRunConfirms) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const WcnfFormula w =
        WcnfFormula::allSoft(randomUnsat3Sat(40, 6.0, seed * 11));
    // Tiny conflict budget: likely Unknown.
    MaxSatOptions tight;
    tight.budget = Budget::conflicts(30);
    Msu4Solver limited(tight);
    const MaxSatResult bounded = limited.solve(w);

    MaxSatOptions free;
    free.budget = Budget::wallClock(20.0);
    Msu4Solver full(free);
    const MaxSatResult exact = full.solve(w);
    if (exact.status != MaxSatStatus::Optimum) continue;

    if (bounded.status == MaxSatStatus::Unknown) {
      EXPECT_LE(bounded.lowerBound, exact.cost) << seed;
      EXPECT_GE(bounded.upperBound, exact.cost) << seed;
    } else {
      EXPECT_EQ(bounded.cost, exact.cost) << seed;
    }
  }
}

TEST(Property, PreprocessThenSolveEqualsDirectSolve) {
  for (std::uint64_t seed = 50; seed <= 62; ++seed) {
    const WcnfFormula w = randomWcnf(seed, true, true);
    const OracleResult truth = oracleMaxSat(w);
    const PreprocessResult pre = preprocessWcnf(w);
    if (!truth.optimumCost) {
      // Hard part unsat: preprocessing may or may not already detect it;
      // if it produced a simplified instance, the engine must refuse it.
      if (pre.simplified) {
        Msu1Solver solver;
        EXPECT_EQ(solver.solve(*pre.simplified).status,
                  MaxSatStatus::UnsatisfiableHard)
            << seed;
      }
      continue;
    }
    ASSERT_TRUE(pre.simplified.has_value()) << seed;
    Msu1Solver solver;
    const MaxSatResult r = solver.solve(*pre.simplified);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << seed;
    EXPECT_EQ(pre.forcedCost + r.cost, *truth.optimumCost) << seed;
  }
}

TEST(Property, DuplicationEqualsNativeWeighted) {
  for (std::uint64_t seed = 70; seed <= 82; ++seed) {
    const WcnfFormula w = randomWcnf(seed, true, false);
    const std::optional<WcnfFormula> dup = w.unweighted();
    ASSERT_TRUE(dup.has_value());
    Msu4Solver duplicated;  // solves the duplicated instance internally
    Msu1Solver native;
    const MaxSatResult a = duplicated.solve(w);
    const MaxSatResult b = native.solve(w);
    ASSERT_EQ(a.status, MaxSatStatus::Optimum) << seed;
    ASSERT_EQ(b.status, MaxSatStatus::Optimum) << seed;
    EXPECT_EQ(a.cost, b.cost) << seed;
  }
}

TEST(Property, ModelsAlwaysCompleteOverOriginalVars) {
  for (const char* engine : {"msu4-v2", "msu3", "linear", "binary",
                             "maxsatz", "pbo"}) {
    const WcnfFormula w = randomWcnf(99, false, true);
    auto solver = makeSolver(engine);
    const MaxSatResult r = solver->solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << engine;
    ASSERT_EQ(static_cast<int>(r.model.size()), w.numVars()) << engine;
    for (lbool v : r.model) {
      EXPECT_NE(v, lbool::Undef) << engine << ": partial model returned";
    }
  }
}

TEST(Property, StatusStringStable) {
  EXPECT_STREQ(toString(MaxSatStatus::Optimum), "OPTIMUM");
  EXPECT_STREQ(toString(MaxSatStatus::UnsatisfiableHard), "UNSATISFIABLE");
  EXPECT_STREQ(toString(MaxSatStatus::Unknown), "UNKNOWN");
}

}  // namespace
}  // namespace msu
