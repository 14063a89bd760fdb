/// Tests for the weighted-native MaxSAT engines (oll, linear, pbo, msu1):
///  * agreement between all weighted engines and with duplication-based
///    unweighted reductions (every engine's oracle cross-check on
///    random weighted instances is in maxsat_solvers_test);
///  * weighted edge cases: huge weight spreads, equal weights, empty and
///    unit soft clauses, hard-unsat detection, budget behaviour;
///  * OLL-specific behaviour: first SAT answer is the optimum, lower
///    bound monotonicity through the onBounds callback.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>

#include "cnf/oracle.h"
#include "core/bmo.h"
#include "core/bounds.h"
#include "core/linear_search.h"
#include "core/oll.h"
#include "core/oracle_session.h"
#include "gen/graphs.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "random_weighted.h"

namespace msu {
namespace {

/// Test-name suffix for an engine name ("msu4-v2" -> "msu4_v2").
std::string engineParamName(const ::testing::TestParamInfo<std::string>& i) {
  std::string n = i.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class WeightedEngine : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<MaxSatSolver> make(MaxSatOptions o = {}) const {
    auto s = makeSolver(GetParam(), o);
    EXPECT_NE(s, nullptr);
    return s;
  }
};

TEST_P(WeightedEngine, LargeWeightSpread) {
  // Weights spanning six orders of magnitude: duplication would need
  // ~10^6 clauses, native engines must handle it directly.
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 1'000'000);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({posLit(1)}, 500'000);
  w.addSoft({negLit(1)}, 499'999);
  w.addSoft({posLit(2), posLit(0)}, 3);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 1 + 499'999);
}

TEST_P(WeightedEngine, AllSoftFalsifiedIsStillSolved) {
  // Hard clauses force every soft clause false.
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addHard({posLit(1)});
  w.addSoft({negLit(0)}, 3);
  w.addSoft({negLit(1)}, 5);
  w.addSoft({negLit(0), negLit(1)}, 2);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 10);
}

TEST_P(WeightedEngine, EmptySoftClauseChargesItsWeight) {
  WcnfFormula w(1);
  w.addSoft(std::initializer_list<Lit>{}, 7);
  w.addSoft({posLit(0)}, 2);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 7);
}

TEST_P(WeightedEngine, HardUnsatDetected) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 4);
  auto solver = make();
  EXPECT_EQ(solver->solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

TEST_P(WeightedEngine, ZeroCostInstance) {
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 10);
  w.addSoft({posLit(1)}, 20);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST_P(WeightedEngine, AgreesWithDuplicationReduction) {
  // Native weighted solving == duplication + any unweighted engine.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomWeighted(seed * 977, 4);
    const std::optional<WcnfFormula> dup = w.unweighted();
    ASSERT_TRUE(dup.has_value());
    auto native = make();
    auto reference = makeSolver("msu4-v2");
    const MaxSatResult a = native->solve(w);
    const MaxSatResult b = reference->solve(*dup);
    ASSERT_EQ(a.status, MaxSatStatus::Optimum) << "seed " << seed;
    ASSERT_EQ(b.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(a.cost, b.cost) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWeightedEngines, WeightedEngine,
                         ::testing::Values("oll", "linear", "pbo", "msu1"),
                         engineParamName);

// ---------------------------------------------------------------------
// OLL-specific behaviour
// ---------------------------------------------------------------------

TEST(OllTest, LowerBoundIsMonotoneAndReachesOptimum) {
  const WcnfFormula w = randomWeighted(4242, 6);
  const OracleResult oracle = oracleMaxSat(w);
  ASSERT_TRUE(oracle.optimumCost.has_value());

  std::vector<Weight> lowers;
  MaxSatOptions opts;
  opts.onBounds = [&](Weight lower, Weight) { lowers.push_back(lower); };
  OllSolver solver(opts);
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, *oracle.optimumCost);
  for (std::size_t i = 1; i < lowers.size(); ++i) {
    EXPECT_LE(lowers[i - 1], lowers[i]);
  }
  if (!lowers.empty()) {
    EXPECT_LE(lowers.back(), r.cost);
  }
}

TEST(OllTest, UnweightedInstancesMatchMsu4) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CnfFormula f = randomUnsat3Sat(11, 6.0, seed);
    const WcnfFormula w = WcnfFormula::allSoft(f);
    OllSolver oll;
    auto msu4 = makeSolver("msu4-v2");
    const MaxSatResult a = oll.solve(w);
    const MaxSatResult b = msu4->solve(w);
    ASSERT_EQ(a.status, MaxSatStatus::Optimum) << "seed " << seed;
    ASSERT_EQ(b.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(a.cost, b.cost) << "seed " << seed;
  }
}

TEST(OllTest, CoreCountNeverExceedsIterations) {
  const WcnfFormula w = randomWeighted(99, 5);
  OllSolver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_LE(r.coresFound, r.iterations);
  EXPECT_GE(r.satCalls, r.iterations);
}

TEST(OllTest, BudgetExhaustionReturnsUnknownWithValidLowerBound) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(18, 5.5, 5));
  MaxSatOptions opts;
  opts.budget = Budget::conflicts(3);
  OllSolver solver(opts);
  const MaxSatResult r = solver.solve(w);
  if (r.status == MaxSatStatus::Unknown) {
    const OracleResult oracle = oracleMaxSat(w);
    ASSERT_TRUE(oracle.optimumCost.has_value());
    EXPECT_LE(r.lowerBound, *oracle.optimumCost);
  }
}

TEST(OllTest, StressEqualWeights) {
  // Equal weights exercise the multi-member charge path heavily.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    WcnfFormula w = randomWeighted(seed * 31, 1, /*withHards=*/false);
    const OracleResult oracle = oracleMaxSat(w);
    ASSERT_TRUE(oracle.optimumCost.has_value());
    OllSolver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *oracle.optimumCost) << "seed " << seed;
  }
}

TEST(OllTest, StressTwoValuedWeights) {
  // Two weight classes force interleaved charging of partially paid
  // members (the residual-weight path) and successor-bound extensions.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    WcnfFormula w(6);
    for (int i = 0; i < 20; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 6), (rng() & 1) != 0));
      }
      w.addSoft(c, (rng() & 1) != 0 ? 10 : 3);
    }
    const OracleResult oracle = oracleMaxSat(w);
    ASSERT_TRUE(oracle.optimumCost.has_value());
    OllSolver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *oracle.optimumCost) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Weighted linear search specifics
// ---------------------------------------------------------------------

TEST(LinearSearchTest, UpperBoundDecreasesStrictly) {
  std::vector<Weight> uppers;
  MaxSatOptions opts;
  opts.onBounds = [&](Weight, Weight upper) { uppers.push_back(upper); };
  LinearSearchSolver solver(opts);
  const WcnfFormula w = randomWeighted(1234, 8);
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  for (std::size_t i = 1; i < uppers.size(); ++i) {
    EXPECT_LT(uppers[i], uppers[i - 1]);
  }
  if (!uppers.empty()) {
    EXPECT_EQ(uppers.back(), r.cost);
  }
}

TEST(LinearSearchTest, BothPbEncodingsAgree) {
  // Both bounds (the model's true cost, and pbo's blocking-variable
  // weight) over both PB encodings reach the oracle's optimum.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomWeighted(seed * 613, 7);
    const OracleResult truth = oracleMaxSat(w);
    for (const bool modelCost : {true, false}) {
      MaxSatOptions o;
      o.tightenWithModelCost = modelCost;
      for (const PbEncoding pb : {PbEncoding::Bdd, PbEncoding::Adder}) {
        LinearSearchSolver solver(o, pb);
        const MaxSatResult r = solver.solve(w);
        const std::string label = "seed " + std::to_string(seed) + " " +
                                  toString(pb) +
                                  (modelCost ? " model-cost" : " blocking");
        if (!truth.optimumCost) {
          EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard) << label;
          continue;
        }
        ASSERT_EQ(r.status, MaxSatStatus::Optimum) << label;
        EXPECT_EQ(r.cost, *truth.optimumCost) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------
// BMO (lexicographic multilevel) specifics
// ---------------------------------------------------------------------

TEST(BmoTest, StrataDetection) {
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 100);
  w.addSoft({posLit(1)}, 10);
  w.addSoft({posLit(2)}, 10);
  w.addSoft({negLit(0)}, 1);
  // 100 > 10+10+1, 10 > 1: valid three-level ladder.
  EXPECT_EQ(bmoStrata(w), (std::vector<Weight>{100, 10, 1}));

  WcnfFormula bad(2);
  bad.addSoft({posLit(0)}, 3);
  bad.addSoft({posLit(1)}, 2);
  bad.addSoft({negLit(0)}, 2);
  // 3 <= 2+2: not BMO.
  EXPECT_TRUE(bmoStrata(bad).empty());

  WcnfFormula unit(1);
  unit.addSoft({posLit(0)}, 1);
  EXPECT_EQ(bmoStrata(unit), (std::vector<Weight>{1}));
}

TEST(BmoTest, LadderInstancesMatchOracle) {
  std::mt19937_64 rng(17);
  const Weight ladder[] = {1, 100, 10'000};
  for (int round = 0; round < 12; ++round) {
    WcnfFormula w(7);
    for (int i = 0; i < 3; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 7), (rng() & 1) != 0));
      }
      w.addHard(c);
    }
    for (int i = 0; i < 15; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 7), (rng() & 1) != 0));
      }
      w.addSoft(c, ladder[rng() % 3]);
    }
    ASSERT_FALSE(bmoStrata(w).empty()) << "round " << round;
    const OracleResult oracle = oracleMaxSat(w);
    BmoSolver solver;
    const MaxSatResult r = solver.solve(w);
    if (!oracle.optimumCost) {
      EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard)
          << "round " << round;
      continue;
    }
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(r.cost, *oracle.optimumCost) << "round " << round;
    EXPECT_GE(solver.lastStrata(), 1) << "round " << round;
    const std::optional<Weight> check = w.cost(r.model);
    ASSERT_TRUE(check.has_value()) << "round " << round;
    EXPECT_EQ(*check, r.cost) << "round " << round;
  }
}

TEST(BmoTest, NonBmoFallsBackToOll) {
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 3);
  w.addSoft({negLit(0)}, 2);
  w.addSoft({posLit(1)}, 2);
  w.addSoft({negLit(1), posLit(2)}, 3);
  ASSERT_TRUE(bmoStrata(w).empty());
  BmoSolver solver;
  const MaxSatResult r = solver.solve(w);
  EXPECT_EQ(solver.lastStrata(), 0);
  const OracleResult oracle = oracleMaxSat(w);
  ASSERT_TRUE(oracle.optimumCost.has_value());
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, *oracle.optimumCost);
}

TEST(BmoTest, LexicographicSemantics) {
  // One high-weight soft conflicts with three low-weight softs: the
  // lexicographic optimum keeps the high one and pays 3 small units.
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 10);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  BmoSolver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 3);
  EXPECT_EQ(r.model[0], lbool::True);
  EXPECT_EQ(solver.lastStrata(), 2);
}

TEST(BmoTest, NoSoftClauses) {
  WcnfFormula w(2);
  w.addHard({posLit(0), posLit(1)});
  BmoSolver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST(BmoTest, HardUnsat) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 5);
  BmoSolver solver;
  EXPECT_EQ(solver.solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

TEST(BmoTest, ReportsItsLevelsSatWork) {
  // All-soft PHP(6,5) is one level, run by msu4: its solver's counters
  // must reach the result, one solve per SAT call.
  BmoSolver solver;
  const MaxSatResult r =
      solver.solve(WcnfFormula::allSoft(pigeonhole(6, 5)));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(solver.lastStrata(), 1);
  EXPECT_GT(r.satCalls, 0);
  EXPECT_EQ(r.satStats.solves, r.satCalls);
  EXPECT_GT(r.satStats.propagations, 0);
}

TEST(UnitWeightExpansion, CountsAgainstTheMemoryCap) {
  // msu4, msu3, binary, maxsatz and the two bounds of core/bounds.h run
  // a weighted input on its unit-weight expansion: a copy of the hard
  // clauses plus `weight` copies of each soft, held for the whole run.
  // Here that copy alone fills the cap, while the solver, which drops
  // every hard clause the unit x0 satisfies, stays far below it.
  constexpr int kVars = 40;
  WcnfFormula w(kVars);
  w.addHard({posLit(0)});
  for (int i = 0; i < 6000; ++i) {
    Clause c{posLit(0)};
    for (Var v = 1; v < kVars; ++v) {
      c.push_back(mkLit(v, ((i >> (v % 8)) & 1) != 0));
    }
    w.addHard(c);
  }
  w.addSoft({negLit(1)}, 2);
  w.addSoft({posLit(1)}, 3);
  std::optional<WcnfFormula> expanded;
  ASSERT_NE(w.unitWeight(expanded), &w);
  const std::int64_t cap = expanded->memBytesEstimate();

  for (const char* name : {"msu4-v2", "msu3", "binary"}) {
    const MaxSatResult uncapped = makeSolver(name)->solve(w);
    ASSERT_EQ(uncapped.status, MaxSatStatus::Optimum) << name;
    EXPECT_EQ(uncapped.cost, 2) << name;
    EXPECT_EQ(uncapped.satStats.mem_external_bytes, cap) << name;
    EXPECT_LT(uncapped.satStats.mem_bytes -
                  uncapped.satStats.mem_external_bytes,
              cap / 4)
        << name;

    std::atomic<int> reason{static_cast<int>(AbortReason::kNone)};
    MaxSatOptions o;
    o.budget.setMaxMemory(cap);
    o.budget.setAbortSink(&reason);
    const MaxSatResult capped = makeSolver(name, o)->solve(w);
    EXPECT_EQ(capped.status, MaxSatStatus::Unknown) << name;
    EXPECT_EQ(static_cast<AbortReason>(reason.load()), AbortReason::kMemory)
        << name;
  }

  // maxsatz searches without a SAT solver: it checks the copy against
  // the cap before it starts.
  const MaxSatResult uncapped = makeSolver("maxsatz")->solve(w);
  ASSERT_EQ(uncapped.status, MaxSatStatus::Optimum);
  EXPECT_EQ(uncapped.cost, 2);
  const DisjointCoresResult cores = disjointCores(w);
  EXPECT_TRUE(cores.complete);
  EXPECT_GE(cores.costLowerBound(), 1);
  EXPECT_LE(cores.costLowerBound(), 2);
  const std::optional<BlockingBoundResult> bound = blockingUpperBound(w);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(bound->costUpperBound, 2);

  // The sink keeps only the first reason recorded: read and reset it
  // after each run.
  std::atomic<int> reason{static_cast<int>(AbortReason::kNone)};
  const auto abortedOnMemory = [&reason] {
    const int r = reason.exchange(static_cast<int>(AbortReason::kNone));
    return static_cast<AbortReason>(r) == AbortReason::kMemory;
  };
  MaxSatOptions o;
  o.budget.setMaxMemory(cap);
  o.budget.setAbortSink(&reason);
  EXPECT_EQ(makeSolver("maxsatz", o)->solve(w).status, MaxSatStatus::Unknown);
  EXPECT_TRUE(abortedOnMemory()) << "maxsatz";
  EXPECT_FALSE(disjointCores(w, o.budget).complete);
  EXPECT_TRUE(abortedOnMemory()) << "disjointCores";
  EXPECT_FALSE(blockingUpperBound(w, o.budget).has_value());
  EXPECT_TRUE(abortedOnMemory()) << "blockingUpperBound";
}

TEST(UnitWeightExpansion, LeavesTheSessionsUpwardVarsUndecided) {
  // An engine that runs on a unit-weight expansion hands it to its
  // OracleSession, whose sink then creates the sorter's wires as
  // non-decision variables; on unit-weight input they stay decision
  // variables. Solving over a lone fresh wire branches on it only when
  // it is a decision variable.
  std::vector<std::int64_t> decisions;
  for (const Weight weight : {1, 2}) {
    WcnfFormula w(1);
    w.addSoft({posLit(0)}, weight);
    std::optional<WcnfFormula> expanded;
    ASSERT_EQ(w.unitWeight(expanded) == &w, weight == 1);
    OracleSession session(MaxSatOptions{}, expanded);
    static_cast<void>(session.sink().newUpwardVar());
    ASSERT_EQ(session.sat().solve(), lbool::True);
    decisions.push_back(session.sat().stats().decisions);
  }
  EXPECT_EQ(decisions[0], decisions[1] + 1);
}

TEST(BmoTest, AgreesWithOllOnBmoInstances) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 8; ++round) {
    WcnfFormula w(6);
    for (int i = 0; i < 12; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 6), (rng() & 1) != 0));
      }
      w.addSoft(c, (rng() & 1) != 0 ? 1000 : 1);
    }
    BmoSolver bmo;
    OllSolver oll;
    const MaxSatResult a = bmo.solve(w);
    const MaxSatResult b = oll.solve(w);
    ASSERT_EQ(a.status, MaxSatStatus::Optimum) << "round " << round;
    ASSERT_EQ(b.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(a.cost, b.cost) << "round " << round;
  }
}

TEST(OllTest, WeightedMaxCutChargeSplittingRegression) {
  // Regression for the weighted charge bookkeeping: with successor
  // bounds only created on *full* payment, partially paid sums leaked
  // charge mass, the assumption set went weak, and OLL accepted a
  // suboptimal max-cut model as the optimum (observed: cost 26 vs a
  // true optimum of 25 on a 9-vertex weighted max-cut). The RC2-style
  // fix pushes wmin onto the successor bound on every occurrence.
  std::mt19937_64 rng(3);
  for (int n = 5; n <= 9; ++n) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Graph g = randomGraph(n, 0.6, seed * 7 + n);
      std::vector<Weight> weights;
      weights.reserve(g.edges.size());
      for (std::size_t e = 0; e < g.edges.size(); ++e) {
        weights.push_back(1 + static_cast<Weight>(rng() % 7));
      }
      const WcnfFormula w = maxCutInstance(g, weights);
      const OracleResult truth = oracleMaxSat(w);
      ASSERT_TRUE(truth.optimumCost.has_value());
      OllSolver oll{MaxSatOptions{}};
      const MaxSatResult r = oll.solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << n << "/" << seed;
      EXPECT_EQ(r.cost, *truth.optimumCost) << n << "/" << seed;
      EXPECT_EQ(w.cost(r.model), r.cost) << n << "/" << seed;
    }
  }
}

}  // namespace
}  // namespace msu
