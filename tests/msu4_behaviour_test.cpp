/// Behavioural tests of msu4 as an algorithm (beyond optimum
/// correctness): iteration/core accounting, bound trajectories on the
/// paper's worked example, diagnostics consistency, interaction of every
/// option combination, and larger oracle-checked sweeps at higher
/// clause/variable ratios where bounds race each other.

#include <gtest/gtest.h>

#include <vector>

#include "cnf/oracle.h"
#include "core/msu4.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"

namespace msu {
namespace {

WcnfFormula paperExample2() {
  CnfFormula phi(4);
  phi.addClause({posLit(0)});
  phi.addClause({negLit(0), negLit(1)});
  phi.addClause({posLit(1)});
  phi.addClause({negLit(0), negLit(2)});
  phi.addClause({posLit(2)});
  phi.addClause({negLit(1), negLit(2)});
  phi.addClause({posLit(0), negLit(3)});
  phi.addClause({negLit(0), posLit(3)});
  return WcnfFormula::allSoft(phi);
}

TEST(Msu4Behaviour, PaperExampleTrajectory) {
  // §3.3 walks msu4 through Example 2: two cores are found and the
  // bounds meet at cost 2 (6 satisfied of 8).
  std::vector<std::pair<Weight, Weight>> trace;
  MaxSatOptions o;
  o.onBounds = [&](Weight lb, Weight ub) { trace.emplace_back(lb, ub); };
  Msu4Solver solver(o);
  const MaxSatResult r = solver.solve(paperExample2());
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 2);
  // The paper's run finds two cores; core *choice* is solver-dependent,
  // but the count is bracketed by the optimum and the clause count.
  EXPECT_GE(r.coresFound, 2);
  EXPECT_LE(r.coresFound, 8);
  ASSERT_FALSE(trace.empty());
  // Bounds converge to (2, 2).
  EXPECT_EQ(trace.back().first, 2);
  EXPECT_LE(trace.back().second, 2 + 1);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].first, trace[i - 1].first);
    EXPECT_LE(trace[i].second, trace[i - 1].second);
  }
}

TEST(Msu4Behaviour, DiagnosticsAreConsistent) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(20, 5.5, 99));
  Msu4Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.iterations, r.satCalls);  // no trimming: one call per loop
  EXPECT_LE(r.coresFound, r.iterations);
  EXPECT_GT(r.satStats.conflicts, 0);
  EXPECT_EQ(r.lowerBound, r.cost);
  EXPECT_EQ(r.upperBound, r.cost);
}

TEST(Msu4Behaviour, AtMostOneBlockingVariablePerClause) {
  // msu4's defining property vs msu1: the working formula never carries
  // two blocking variables for one clause. With the selector-reuse
  // design this is structural; verify the observable consequence — the
  // number of cores never exceeds the number of soft clauses even on
  // instances where msu1 would clone clauses repeatedly.
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(6, 5));
  Msu4Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_LE(r.coresFound, w.numSoft());
  EXPECT_EQ(r.cost, 1);
}

struct OptionCombo {
  bool atLeastOne;
  bool reuse;
  bool tighten;
  int trimRounds;
  CardEncoding enc;
};

class Msu4Options : public ::testing::TestWithParam<OptionCombo> {};

TEST_P(Msu4Options, AllCombinationsReachTheOracleOptimum) {
  const OptionCombo c = GetParam();
  MaxSatOptions o;
  o.msu4AtLeastOne = c.atLeastOne;
  o.reuseEncodings = c.reuse;
  o.tightenWithModelCost = c.tighten;
  o.trimCoreRounds = c.trimRounds;
  o.encoding = c.enc;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(
        randomKSat({.numVars = 9, .numClauses = 48, .clauseLen = 3,
                    .seed = seed * 1009}));
    const OracleResult truth = oracleMaxSat(w);
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

std::vector<OptionCombo> optionCombos() {
  std::vector<OptionCombo> out;
  for (bool alo : {false, true}) {
    for (bool reuse : {false, true}) {
      for (bool tighten : {false, true}) {
        out.push_back(OptionCombo{alo, reuse, tighten, 0,
                                  CardEncoding::Sorter});
      }
    }
  }
  for (CardEncoding enc : {CardEncoding::Bdd, CardEncoding::Totalizer}) {
    out.push_back(OptionCombo{true, true, true, 0, enc});
  }
  out.push_back(OptionCombo{true, true, true, 3, CardEncoding::Sorter});
  out.push_back(OptionCombo{false, false, false, 2, CardEncoding::Bdd});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Msu4Options, ::testing::ValuesIn(optionCombos()),
    [](const ::testing::TestParamInfo<OptionCombo>& info) {
      const OptionCombo& c = info.param;
      std::string n = std::string("alo") + (c.atLeastOne ? "1" : "0") +
                      "reuse" + (c.reuse ? "1" : "0") + "tight" +
                      (c.tighten ? "1" : "0") + "trim" +
                      std::to_string(c.trimRounds) + "_" + toString(c.enc);
      return n;
    });

TEST(Msu4Behaviour, HighRatioSweepMatchesOracle) {
  // Dense instances where LB and UB race each other for many rounds —
  // the regime that exposed the msu3 bound-soundness issue.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    for (double ratio : {6.0, 8.0, 10.0}) {
      const WcnfFormula w = WcnfFormula::allSoft(
          randomUnsat3Sat(11, ratio, seed * 31));
      const OracleResult truth = oracleMaxSat(w);
      ASSERT_TRUE(truth.optimumCost.has_value());
      for (auto make : {&Msu4Solver::v1, &Msu4Solver::v2}) {
        MaxSatOptions o;
        Msu4Solver solver = make(o);
        const MaxSatResult r = solver.solve(w);
        ASSERT_EQ(r.status, MaxSatStatus::Optimum)
            << "seed " << seed << " ratio " << ratio;
        EXPECT_EQ(r.cost, *truth.optimumCost)
            << solver.name() << " seed " << seed << " ratio " << ratio;
      }
    }
  }
}

TEST(Msu4Behaviour, ReturnsBestModelOnBudgetExhaustion) {
  const WcnfFormula w = WcnfFormula::allSoft(randomUnsat3Sat(50, 7.0, 5));
  MaxSatOptions o;
  o.budget = Budget::conflicts(400);
  Msu4Solver solver(o);
  const MaxSatResult r = solver.solve(w);
  if (r.status == MaxSatStatus::Unknown && !r.model.empty()) {
    // The carried model must achieve a cost within the reported bounds.
    const auto mc = w.cost(r.model);
    ASSERT_TRUE(mc.has_value());
    EXPECT_LE(*mc, static_cast<Weight>(w.numSoft()));
    EXPECT_GE(*mc, r.lowerBound);
    EXPECT_EQ(*mc, r.upperBound);  // upper bound is the best model's cost
  }
}

}  // namespace
}  // namespace msu
