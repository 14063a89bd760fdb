/// Cross-engine integration tests on mid-size *structured* instances
/// (too large for the exhaustive oracle): every engine that finishes
/// within its budget must agree with every other, and returned models
/// must achieve the reported cost. Also validates the bounds-progress
/// callback contract (monotone, converging) across engines.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "gen/bmc.h"
#include "gen/debug.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "gen/tpg.h"
#include "harness/factory.h"

namespace msu {
namespace {

/// Mid-size structured instances (hundreds to ~2k clauses).
std::vector<std::pair<std::string, WcnfFormula>> structuredInstances() {
  std::vector<std::pair<std::string, WcnfFormula>> out;
  {
    RandomCircuitParams p;
    p.numInputs = 8;
    p.numGates = 60;
    p.numOutputs = 2;
    p.seed = 5;
    out.emplace_back("miter",
                     WcnfFormula::allSoft(equivalenceInstance(p, 55)));
  }
  {
    out.emplace_back("bmc", WcnfFormula::allSoft(bmcCounterInstance(
                                {.bits = 6, .steps = 12})));
  }
  {
    DebugParams dp;
    dp.circuit.numInputs = 6;
    dp.circuit.numGates = 40;
    dp.circuit.numOutputs = 2;
    dp.circuit.seed = 7;
    dp.numVectors = 3;
    dp.seed = 9;
    out.emplace_back("debug-plain",
                     designDebugInstance(dp, /*partial=*/false).wcnf);
    out.emplace_back("debug-partial",
                     designDebugInstance(dp, /*partial=*/true).wcnf);
  }
  {
    RandomCircuitParams p;
    p.numInputs = 7;
    p.numGates = 50;
    p.numOutputs = 2;
    p.seed = 13;
    out.emplace_back("tpg",
                     WcnfFormula::allSoft(untestableFaultInstance(p, 17)));
  }
  {
    DebugParams dp;
    dp.circuit.numInputs = 6;
    dp.circuit.numGates = 45;
    dp.circuit.numOutputs = 2;
    dp.circuit.seed = 19;
    dp.numVectors = 4;
    dp.numErrors = 2;
    dp.seed = 21;
    out.emplace_back("debug-2err",
                     designDebugInstance(dp, /*partial=*/false).wcnf);
  }
  out.emplace_back("php5", WcnfFormula::allSoft(pigeonhole(6, 5)));
  out.emplace_back(
      "rnd", WcnfFormula::allSoft(randomUnsat3Sat(30, 5.0, 23)));
  return out;
}

TEST(CrossEngine, AllFinishersAgree) {
  const auto instances = structuredInstances();
  // Every factory engine, the portfolios included (diversified workers
  // racing): their optima must agree on the whole corpus.
  for (const auto& [name, wcnf] : instances) {
    std::map<std::string, Weight> optima;
    for (const std::string& engine : solverNames()) {
      MaxSatOptions o;
      o.budget = Budget::wallClock(5.0);
      auto solver = makeSolver(engine, o);
      ASSERT_NE(solver, nullptr) << engine;
      const MaxSatResult r = solver->solve(wcnf);
      if (r.status != MaxSatStatus::Optimum) continue;  // budgeted out: ok
      optima[engine] = r.cost;
      // Model achieves the cost.
      const auto mc = wcnf.cost(r.model);
      ASSERT_TRUE(mc.has_value()) << engine << " on " << name;
      EXPECT_EQ(*mc, r.cost) << engine << " on " << name;
    }
    ASSERT_GE(optima.size(), 2u) << name << ": too few finishers";
    const Weight reference = optima.begin()->second;
    for (const auto& [engine, cost] : optima) {
      EXPECT_EQ(cost, reference)
          << name << ": " << engine << " vs " << optima.begin()->first;
    }
  }
}

TEST(CrossEngine, SuiteInstancesAreUnsatAsCnf) {
  // Every all-soft instance in the structured list stems from an UNSAT
  // CNF, so its MaxSAT optimum must be >= 1 for whoever solves it.
  const auto instances = structuredInstances();
  for (const auto& [name, wcnf] : instances) {
    if (!wcnf.isPlain()) continue;
    MaxSatOptions o;
    o.budget = Budget::wallClock(5.0);
    auto solver = makeSolver("msu4-v2", o);
    const MaxSatResult r = solver->solve(wcnf);
    if (r.status != MaxSatStatus::Optimum) continue;
    EXPECT_GE(r.cost, 1) << name;
  }
}

struct CallbackCase {
  std::string engine;
};

class BoundsCallback : public ::testing::TestWithParam<std::string> {};

TEST_P(BoundsCallback, MonotoneAndConverging) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(24, 5.4, 2024));
  MaxSatOptions o;
  Weight lastLower = -1;
  Weight lastUpper = std::numeric_limits<Weight>::max();
  int calls = 0;
  o.onBounds = [&](Weight lower, Weight upper) {
    ++calls;
    EXPECT_GE(lower, lastLower) << "lower bound regressed";
    EXPECT_LE(upper, lastUpper) << "upper bound regressed";
    EXPECT_LE(lower, upper + 0);  // never crossed before termination check
    lastLower = lower;
    lastUpper = upper;
  };
  auto solver = makeSolver(GetParam(), o);
  ASSERT_NE(solver, nullptr);
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum) << GetParam();
  EXPECT_GT(calls, 0) << GetParam() << " never reported bounds";
  EXPECT_LE(lastLower, r.cost);
  // Engines reporting upper bounds must have reached the optimum.
  if (lastUpper <= static_cast<Weight>(w.numSoft())) {
    EXPECT_GE(lastUpper, r.cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BoundsCallback,
                         ::testing::Values("msu4-v2", "msu4-v1", "msu3", "msu1",
                                           "linear", "binary", "pbo"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(CrossEngine, PartialDebugOptimumMatchesErrorCount) {
  // With hard I/O constraints and soft gate clauses, the optimum is at
  // most a couple of clauses per injected error (one is typical).
  DebugParams dp;
  dp.circuit.numInputs = 6;
  dp.circuit.numGates = 50;
  dp.circuit.numOutputs = 2;
  dp.circuit.seed = 33;
  dp.numVectors = 4;
  dp.seed = 35;
  const DebugInstance inst = designDebugInstance(dp, /*partial=*/true);
  auto solver = makeSolver("msu4-v2");
  const MaxSatResult r = solver->solve(inst.wcnf);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_GE(r.cost, 1);
  EXPECT_LE(r.cost, 4);  // a single gate error needs few clause drops
}

}  // namespace
}  // namespace msu
