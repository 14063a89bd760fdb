/// Integration & property tests for every MaxSAT engine: agreement with
/// the exhaustive oracle on randomized plain, partial and weighted
/// instances, paper examples, pigeonhole optima, hard-unsat detection,
/// budget behaviour and weighted handling.

#include <gtest/gtest.h>

#include <memory>

#include "cnf/oracle.h"
#include "core/binary_search.h"
#include "core/linear_search.h"
#include "core/msu1.h"
#include "core/msu3.h"
#include "core/msu4.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "random_weighted.h"

namespace msu {
namespace {

/// A plain MaxSAT instance from a random CNF.
WcnfFormula randomPlain(int n, int m, std::uint64_t seed) {
  return WcnfFormula::allSoft(
      randomKSat({.numVars = n, .numClauses = m, .clauseLen = 3,
                  .seed = seed}));
}

/// A random partial MaxSAT instance: the first `h` clauses become hard
/// only when they keep the hard part satisfiable.
WcnfFormula randomPartial(int n, int m, int h, std::uint64_t seed) {
  const CnfFormula f = randomKSat(
      {.numVars = n, .numClauses = m, .clauseLen = 3, .seed = seed});
  WcnfFormula w(f.numVars());
  CnfFormula hardPart(f.numVars());
  for (int i = 0; i < f.numClauses(); ++i) {
    if (i < h) {
      hardPart.addClause(f.clause(i));
      if (oracleSat(hardPart)) {
        w.addHard(f.clause(i));
        continue;
      }
      // Would make the hard part unsat: demote to soft.
    }
    w.addSoft(f.clause(i), 1);
  }
  return w;
}

void expectSolvesTo(MaxSatSolver& solver, const WcnfFormula& w,
                    const std::string& label) {
  const OracleResult truth = oracleMaxSat(w);
  const MaxSatResult r = solver.solve(w);
  if (!truth.optimumCost) {
    EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard) << label;
    return;
  }
  ASSERT_EQ(r.status, MaxSatStatus::Optimum)
      << label << ": expected optimum " << *truth.optimumCost;
  EXPECT_EQ(r.cost, *truth.optimumCost) << label;
  // The model must be feasible and achieve the reported cost.
  ASSERT_EQ(static_cast<int>(r.model.size()), w.numVars()) << label;
  const std::optional<Weight> modelCost = w.cost(r.model);
  ASSERT_TRUE(modelCost.has_value()) << label << ": model violates hards";
  EXPECT_EQ(*modelCost, r.cost) << label << ": model does not achieve cost";
  EXPECT_EQ(r.lowerBound, r.cost) << label;
  EXPECT_EQ(r.upperBound, r.cost) << label;
}

class EveryEngine : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<MaxSatSolver> make() {
    auto s = makeSolver(GetParam());
    EXPECT_NE(s, nullptr);
    return s;
  }
};

TEST_P(EveryEngine, PaperExample2) {
  // §3.3: optimum satisfies 6 of 8 clauses (cost 2).
  CnfFormula phi(4);
  phi.addClause({posLit(0)});
  phi.addClause({negLit(0), negLit(1)});
  phi.addClause({posLit(1)});
  phi.addClause({negLit(0), negLit(2)});
  phi.addClause({posLit(2)});
  phi.addClause({negLit(1), negLit(2)});
  phi.addClause({posLit(0), negLit(3)});
  phi.addClause({negLit(0), posLit(3)});
  auto solver = make();
  const MaxSatResult r = solver->solve(WcnfFormula::allSoft(phi));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 2);
}

TEST_P(EveryEngine, SatisfiableInstanceHasCostZero) {
  CnfFormula f(3);
  f.addClause({posLit(0), posLit(1)});
  f.addClause({negLit(1), posLit(2)});
  auto solver = make();
  const MaxSatResult r = solver->solve(WcnfFormula::allSoft(f));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST_P(EveryEngine, PigeonholeOptimumIsOne) {
  for (int holes : {2, 3, 4}) {
    auto solver = make();
    const MaxSatResult r =
        solver->solve(WcnfFormula::allSoft(pigeonhole(holes + 1, holes)));
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "holes " << holes;
    EXPECT_EQ(r.cost, pigeonholeOptCost(holes)) << "holes " << holes;
  }
}

TEST_P(EveryEngine, RandomPlainAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 131);
    auto solver = make();
    expectSolvesTo(*solver, w, GetParam() + " seed=" + std::to_string(seed));
  }
}

TEST_P(EveryEngine, RandomPartialAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const WcnfFormula w = randomPartial(8, 36, 6, seed * 733);
    auto solver = make();
    expectSolvesTo(*solver,
                   w, GetParam() + " partial seed=" + std::to_string(seed));
  }
}

TEST_P(EveryEngine, RandomWeightedAgreesWithOracle) {
  // msu4, msu3, binary and maxsatz duplicate weighted soft clauses.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const WcnfFormula w = randomWeighted(seed * 101, 9);
    auto solver = make();
    expectSolvesTo(*solver, w,
                   GetParam() + " weighted seed=" + std::to_string(seed));
  }
}

TEST_P(EveryEngine, UnsatisfiableHardDetected) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(1)}, 1);
  auto solver = make();
  EXPECT_EQ(solver->solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

TEST_P(EveryEngine, EmptySoftClauseContributesOne) {
  WcnfFormula w(1);
  w.addSoft(std::initializer_list<Lit>{}, 1);  // falsum: always costs 1
  w.addSoft({posLit(0)}, 1);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum) << GetParam();
  EXPECT_EQ(r.cost, 1) << GetParam();
}

TEST_P(EveryEngine, NoSoftClauses) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST_P(EveryEngine, TinyBudgetReturnsUnknownOnHardInstance) {
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(10, 9));
  MaxSatOptions o;
  o.budget = Budget::wallClock(0.02);
  auto solver = makeSolver(GetParam(), o);
  const MaxSatResult r = solver->solve(w);
  // Either it is genuinely that fast (fine) or it reports Unknown with
  // coherent bounds.
  if (r.status == MaxSatStatus::Unknown) {
    EXPECT_LE(r.lowerBound, r.upperBound);
    EXPECT_GE(r.lowerBound, 0);
  } else {
    EXPECT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, 1);
  }
}

TEST_P(EveryEngine, HeavyWeightsKeepBoundsSound) {
  // Too heavy for the engines that duplicate weighted clauses: those may
  // give up, but only with bounds that hold.
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addSoft({negLit(0)}, 2'000'000);
  w.addSoft({posLit(1)}, 3);
  w.addSoft({negLit(1)}, 5);
  const Weight optimum = 2'000'003;
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  if (r.status == MaxSatStatus::Optimum) {
    EXPECT_EQ(r.cost, optimum) << GetParam();
  } else {
    ASSERT_EQ(r.status, MaxSatStatus::Unknown) << GetParam();
    EXPECT_LE(r.lowerBound, optimum) << GetParam();
    EXPECT_GE(r.upperBound, optimum) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EveryEngine,
                         ::testing::ValuesIn(solverNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- msu4-specific behaviour -------------------------------------------

TEST(Msu4, VariantNames) {
  EXPECT_EQ(Msu4Solver::v1().name(), "msu4-v1");
  EXPECT_EQ(Msu4Solver::v2().name(), "msu4-v2");
  EXPECT_EQ(makeSolver("msu4-tot")->name(), "msu4-tot");
}

TEST(Msu4, OptionalAtLeastOneOffStillCorrect) {
  // The paper calls the line-19 constraint optional; correctness must not
  // depend on it.
  MaxSatOptions o;
  o.msu4AtLeastOne = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 271);
    expectSolvesTo(solver, w, "no-atleastone seed=" + std::to_string(seed));
  }
}

TEST(Msu4, NoEncodingReuseStillCorrect) {
  MaxSatOptions o;
  o.reuseEncodings = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 613);
    expectSolvesTo(solver, w, "no-reuse seed=" + std::to_string(seed));
  }
}

TEST(Msu4, PaperNuInsteadOfTightenedCost) {
  // Using the paper's raw blocking-variable count (instead of the
  // tightened model cost) must still find the optimum.
  MaxSatOptions o;
  o.tightenWithModelCost = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 997);
    expectSolvesTo(solver, w, "paper-nu seed=" + std::to_string(seed));
  }
}

TEST(Msu4, BoundsConvergeMonotonically) {
  const WcnfFormula w = randomPlain(10, 55, 4242);
  Msu4Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_GE(r.coresFound, 1);
  EXPECT_GE(r.iterations, r.coresFound);
}

TEST(Factory, KnowsAllNamesAndRejectsUnknown) {
  for (const std::string& name : solverNames()) {
    EXPECT_NE(makeSolver(name), nullptr) << name;
  }
  for (const char* name : {"no-such-solver", "cubes", "cubes4", "wlinear",
                           "wlinear-adder", "pbo-adder", "wmsu1", "msu4-seq",
                           "msu4-cnet"}) {
    EXPECT_EQ(makeSolver(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace msu
