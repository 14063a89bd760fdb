/// Tests for the extension modules beyond the paper's core algorithm:
/// core trimming, Fu-Malik with weight splitting (msu1), and the
/// test-pattern-generation instance family.

#include <gtest/gtest.h>

#include <random>

#include "cnf/oracle.h"
#include "core/core_trim.h"
#include "core/msu1.h"
#include "core/msu4.h"
#include "gen/random_cnf.h"
#include "gen/tpg.h"
#include "sat/solver.h"

namespace msu {
namespace {

// ---- core trimming --------------------------------------------------------

/// Builds a solver with selector-augmented clauses of `f`; returns the
/// selector assumptions (negated selectors).
std::vector<Lit> loadWithSelectors(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  std::vector<Lit> assumps;
  for (const Clause& c : f.clauses()) {
    const Var sel = s.newVar();
    Clause aug = c;
    aug.push_back(posLit(sel));
    static_cast<void>(s.addClause(aug));
    assumps.push_back(negLit(sel));
  }
  return assumps;
}

TEST(CoreTrim, TrimmedCoreStillFails) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    const CnfFormula f = randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = rng()});
    Solver s;
    const std::vector<Lit> assumps = loadWithSelectors(s, f);
    if (s.solve(assumps) != lbool::False) continue;
    const std::vector<Lit> original = s.core();
    const std::vector<Lit> trimmed = trimCore(s, original);
    EXPECT_LE(trimmed.size(), original.size());
    // The trimmed set must still be a failing assumption set.
    EXPECT_EQ(s.solve(trimmed), lbool::False);
  }
}

TEST(CoreTrim, Msu4WithTrimmingAgreesWithOracle) {
  MaxSatOptions o;
  o.trimCoreRounds = 3;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = seed * 37}));
    const OracleResult truth = oracleMaxSat(w);
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

// ---- msu1 on weights ------------------------------------------------------

TEST(Msu1Weighted, WeightedAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 59);
    const CnfFormula f = randomKSat(
        {.numVars = 7, .numClauses = 26, .clauseLen = 3, .seed = rng()});
    WcnfFormula w(f.numVars());
    for (const Clause& c : f.clauses()) {
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 5));
    }
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    Msu1Solver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
    const auto mc = w.cost(r.model);
    ASSERT_TRUE(mc.has_value());
    EXPECT_EQ(*mc, r.cost);
  }
}

TEST(Msu1Weighted, LargeWeightsNoDuplicationNeeded) {
  // Weights far beyond the duplication cap still solve natively.
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 1'000'000'000);
  w.addSoft({negLit(0)}, 2'000'000'000);
  w.addSoft({posLit(1)}, 5);
  Msu1Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 1'000'000'000);
  EXPECT_EQ(r.model[0], lbool::False);
}

TEST(Msu1Weighted, PartialWeightedWithHards) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addSoft({negLit(0)}, 7);       // must fall
  w.addSoft({posLit(1)}, 3);
  const OracleResult truth = oracleMaxSat(w);
  Msu1Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, *truth.optimumCost);
  EXPECT_EQ(r.cost, 7);
}

TEST(Msu1Weighted, UnitWeightsAgreeWithOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 38, .clauseLen = 3, .seed = seed * 97}));
    const OracleResult truth = oracleMaxSat(w);
    Msu1Solver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

TEST(Msu1Weighted, HardUnsat) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 4);
  Msu1Solver solver;
  EXPECT_EQ(solver.solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

// ---- TPG ------------------------------------------------------------------

TEST(Tpg, DeadGatesFound) {
  Circuit c(2);
  const int a = c.addGate(GateType::And, {0, 1});
  const int dead = c.addGate(GateType::Or, {0, 1});
  c.addOutput(a);
  const std::vector<int> dg = deadGates(c);
  ASSERT_EQ(dg.size(), 1u);
  EXPECT_EQ(dg[0], dead);
}

TEST(Tpg, RedundantFaultIsUntestable) {
  Solver::Options so;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 40;
    p.numOutputs = 2;
    p.seed = seed;
    const CnfFormula miter = untestableFaultInstance(p, seed + 50);
    Solver s;
    while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
    for (const Clause& c : miter.clauses()) {
      if (!s.addClause(c)) break;
    }
    EXPECT_EQ(s.solve(), lbool::False) << "seed " << seed;
  }
}

TEST(Tpg, TestableFaultIsSat) {
  // The stuck-at-1 twin of the redundant site is exposed when o == 0 and
  // should be testable on typical circuits.
  int satSeen = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 40;
    p.numOutputs = 2;
    p.seed = seed;
    const RedundantFaultCircuit rf = redundantFaultCircuit(p, seed + 90);
    const CnfFormula miter = buildTpgMiter(rf.circuit, rf.testable);
    Solver s;
    while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
    bool ok = true;
    for (const Clause& c : miter.clauses()) {
      if (!s.addClause(c)) {
        ok = false;
        break;
      }
    }
    if (ok && s.solve() == lbool::True) ++satSeen;
  }
  EXPECT_GE(satSeen, 3);  // most sites are exposable
}

TEST(Tpg, MiterConsistentWithSimulation) {
  // For a testable fault, the SAT model's inputs must actually
  // distinguish the two circuits in simulation.
  RandomCircuitParams p;
  p.numInputs = 5;
  p.numGates = 30;
  p.numOutputs = 2;
  p.seed = 77;
  const RedundantFaultCircuit rf = redundantFaultCircuit(p, 123);
  const CnfFormula miter = buildTpgMiter(rf.circuit, rf.testable);
  Solver s;
  while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : miter.clauses()) ASSERT_TRUE(s.addClause(c));
  if (s.solve() != lbool::True) GTEST_SKIP() << "fault not testable here";
  std::vector<bool> in(5);
  for (int i = 0; i < 5; ++i) {
    in[static_cast<std::size_t>(i)] = s.model()[i] == lbool::True;
  }
  // Faulty simulation: force the gate to the stuck value by rebuilding.
  const std::vector<bool> goodVals = rf.circuit.simulate(in);
  // Simulate faulty by hand: recompute with the fault applied.
  std::vector<bool> vals = goodVals;
  vals[static_cast<std::size_t>(rf.testable.gate)] = rf.testable.stuckAt;
  for (int g = rf.testable.gate + 1; g < rf.circuit.numGates(); ++g) {
    const Gate& gate = rf.circuit.gate(g);
    if (gate.type == GateType::Input) continue;
    bool v = false;
    switch (gate.type) {
      case GateType::And:
      case GateType::Nand:
        v = true;
        for (int f : gate.fanin) v = v && vals[static_cast<std::size_t>(f)];
        if (gate.type == GateType::Nand) v = !v;
        break;
      case GateType::Or:
      case GateType::Nor:
        v = false;
        for (int f : gate.fanin) v = v || vals[static_cast<std::size_t>(f)];
        if (gate.type == GateType::Nor) v = !v;
        break;
      case GateType::Xor:
        v = false;
        for (int f : gate.fanin) v = v != vals[static_cast<std::size_t>(f)];
        break;
      case GateType::Not:
        v = !vals[static_cast<std::size_t>(gate.fanin[0])];
        break;
      case GateType::Buf:
        v = vals[static_cast<std::size_t>(gate.fanin[0])];
        break;
      case GateType::Input:
        break;
    }
    if (g != rf.testable.gate) vals[static_cast<std::size_t>(g)] = v;
  }
  bool differs = false;
  for (int o : rf.circuit.outputs()) {
    if (vals[static_cast<std::size_t>(o)] !=
        goodVals[static_cast<std::size_t>(o)]) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace msu
