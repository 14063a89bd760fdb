/// Tests for the instance generators: circuits simulate correctly,
/// Tseitin encodings are consistent with simulation, rewrites preserve
/// semantics, miters/BMC instances are unsatisfiable, debugging
/// instances behave as designed and reject bad parameters, and
/// generation is deterministic.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "cnf/oracle.h"
#include "gen/bmc.h"
#include "gen/circuit.h"
#include "gen/debug.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "sat/solver.h"

namespace msu {
namespace {

void load(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) return;
  }
}

lbool solveCnf(const CnfFormula& f) {
  Solver s;
  load(s, f);
  return s.solve();
}

TEST(RandomCnf, ShapeAndDeterminism) {
  const RandomCnfParams p{.numVars = 20, .numClauses = 90, .clauseLen = 3,
                          .seed = 9};
  const CnfFormula a = randomKSat(p);
  const CnfFormula b = randomKSat(p);
  EXPECT_EQ(a.numVars(), 20);
  EXPECT_EQ(a.numClauses(), 90);
  ASSERT_EQ(a.numClauses(), b.numClauses());
  for (int i = 0; i < a.numClauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i)) << "not deterministic at " << i;
    EXPECT_EQ(a.clause(i).size(), 3u);
  }
}

TEST(RandomCnf, DistinctVariablesPerClause) {
  const CnfFormula f = randomKSat({.numVars = 10, .numClauses = 200,
                                   .clauseLen = 4, .seed = 3});
  for (const Clause& c : f.clauses()) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        EXPECT_NE(c[i].var(), c[j].var());
      }
    }
  }
}

TEST(RandomCnf, OverConstrainedIsUnsat) {
  // Ratio 6.0 is far above the 3-SAT threshold (~4.27).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CnfFormula f = randomUnsat3Sat(40, 6.0, seed);
    EXPECT_EQ(solveCnf(f), lbool::False) << "seed " << seed;
  }
}

TEST(Pigeonhole, SatIffEnoughHoles) {
  EXPECT_EQ(solveCnf(pigeonhole(3, 3)), lbool::True);
  EXPECT_EQ(solveCnf(pigeonhole(4, 3)), lbool::False);
  EXPECT_EQ(solveCnf(pigeonhole(5, 3)), lbool::False);
}

TEST(Pigeonhole, ClauseCounts) {
  const CnfFormula f = pigeonhole(4, 3);
  // 4 pigeon clauses + 3 holes * C(4,2)=6 pairs = 22.
  EXPECT_EQ(f.numClauses(), 22);
  EXPECT_EQ(f.numVars(), 12);
}

TEST(Circuit, SimulationBasicGates) {
  Circuit c(2);
  const int a = 0;
  const int b = 1;
  const int andG = c.addGate(GateType::And, {a, b});
  const int orG = c.addGate(GateType::Or, {a, b});
  const int xorG = c.addGate(GateType::Xor, {a, b});
  const int nandG = c.addGate(GateType::Nand, {a, b});
  const int norG = c.addGate(GateType::Nor, {a, b});
  const int notG = c.addGate(GateType::Not, {a});
  for (int mask = 0; mask < 4; ++mask) {
    const bool va = (mask & 1) != 0;
    const bool vb = (mask & 2) != 0;
    const std::vector<bool> vals = c.simulate({va, vb});
    EXPECT_EQ(vals[andG], va && vb);
    EXPECT_EQ(vals[orG], va || vb);
    EXPECT_EQ(vals[xorG], va != vb);
    EXPECT_EQ(vals[nandG], !(va && vb));
    EXPECT_EQ(vals[norG], !(va || vb));
    EXPECT_EQ(vals[notG], !va);
  }
}

/// Simulates 64 random vectors in one simulateWords() call and checks
/// every lane against the gate values the Tseitin CNF forces once the
/// inputs are fixed to that lane's vector.
void expectLanesMatchTseitin(const Circuit& c, std::mt19937_64& rng,
                             const char* what) {
  const TseitinResult enc = tseitinEncode(c);
  Solver s;
  load(s, enc.cnf);
  std::vector<std::uint64_t> in(static_cast<std::size_t>(c.numInputs()));
  for (std::uint64_t& word : in) word = rng();
  const std::vector<std::uint64_t> vals = c.simulateWords(in);
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(c.numGates()));
  for (int j = 0; j < 64; ++j) {
    std::vector<Lit> assumps;
    for (int i = 0; i < c.numInputs(); ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      assumps.push_back(Lit(enc.gateVar[k], ((in[k] >> j) & 1) == 0));
    }
    ASSERT_EQ(s.solve(assumps), lbool::True) << what << " lane " << j;
    for (int g = 0; g < c.numGates(); ++g) {
      const std::size_t k = static_cast<std::size_t>(g);
      const lbool v = s.modelValue(posLit(enc.gateVar[k]));
      EXPECT_EQ(v == lbool::True, ((vals[k] >> j) & 1) != 0)
          << what << " gate " << g << " lane " << j;
    }
  }
}

TEST(Circuit, TseitinConsistentWithSimulation) {
  // Random circuits, their rewrites (extra NOT gates) and a copy with
  // a NOT gate flipped to BUF cover every gate type the kernel knows.
  std::mt19937_64 rng(11);
  bool sawBuf = false;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    RandomCircuitParams p;
    p.numInputs = 5;
    p.numGates = 25;
    p.numOutputs = 2;
    p.seed = rng();
    const Circuit c = randomCircuit(p);
    expectLanesMatchTseitin(c, rng, "random");
    expectLanesMatchTseitin(rewriteCircuit(c, rng()), rng, "rewrite");
    int site = c.numGates() - 1;
    for (int g = c.numInputs(); g < c.numGates(); ++g) {
      if (c.gate(g).type == GateType::Not) {
        site = g;
        break;
      }
    }
    const Circuit faulty = injectGateError(c, site);
    sawBuf = sawBuf || faulty.gate(site).type == GateType::Buf;
    expectLanesMatchTseitin(faulty, rng, "injected");
  }
  EXPECT_TRUE(sawBuf);
}

TEST(Circuit, RewritePreservesSemantics) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 6; ++round) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 30;
    p.numOutputs = 3;
    p.seed = rng();
    const Circuit c = randomCircuit(p);
    const Circuit r = rewriteCircuit(c, rng());
    EXPECT_GT(r.numGates(), c.numGates());  // rewrites add structure
    for (int t = 0; t < 16; ++t) {
      std::vector<bool> in(6);
      for (int i = 0; i < 6; ++i) {
        in[static_cast<std::size_t>(i)] = (rng() & 1) != 0;
      }
      EXPECT_EQ(c.evaluate(in), r.evaluate(in)) << "round " << round;
    }
  }
}

TEST(Circuit, InjectedErrorChangesFunction) {
  RandomCircuitParams p;
  p.numInputs = 5;
  p.numGates = 20;
  p.numOutputs = 2;
  p.seed = 99;
  const Circuit c = randomCircuit(p);
  const int site = c.numInputs() + 3;
  const Circuit f = injectGateError(c, site);
  // The mutated gate differs on at least one local input pattern; the
  // full circuits differ somewhere unless masked. Check the gate types.
  EXPECT_NE(c.gate(site).type, f.gate(site).type);
  EXPECT_EQ(c.numGates(), f.numGates());
}

TEST(Miter, EquivalentCircuitsGiveUnsat) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 30;
    p.numOutputs = 2;
    p.seed = seed;
    const CnfFormula miter = equivalenceInstance(p, seed + 100);
    EXPECT_EQ(solveCnf(miter), lbool::False) << "seed " << seed;
  }
}

TEST(Miter, InequivalentCircuitsGiveSat) {
  RandomCircuitParams p;
  p.numInputs = 6;
  p.numGates = 30;
  p.numOutputs = 2;
  p.seed = 5;
  const Circuit c = randomCircuit(p);
  // Find an error site that is observable (retry a few).
  for (int site = c.numInputs(); site < c.numGates(); ++site) {
    const Circuit faulty = injectGateError(c, site);
    bool differs = false;
    std::mt19937_64 rng(7);
    for (int t = 0; t < 64 && !differs; ++t) {
      std::vector<bool> in(6);
      for (int i = 0; i < 6; ++i) {
        in[static_cast<std::size_t>(i)] = (rng() & 1) != 0;
      }
      differs = c.evaluate(in) != faulty.evaluate(in);
    }
    if (!differs) continue;
    EXPECT_EQ(solveCnf(buildMiter(c, faulty)), lbool::True);
    return;
  }
  FAIL() << "no observable error site found";
}

TEST(Bmc, CounterInstanceIsUnsat) {
  for (int bits : {4, 6}) {
    for (int steps : {3, 8}) {
      const CnfFormula f = bmcCounterInstance({.bits = bits, .steps = steps});
      EXPECT_EQ(solveCnf(f), lbool::False)
          << "bits=" << bits << " steps=" << steps;
    }
  }
}

TEST(Bmc, ReachableTargetIsSat) {
  // Asserting value == k is reachable (enable every step).
  const int bits = 4;
  const int k = 5;
  CnfFormula f = bmcCounterInstance({.bits = bits, .steps = k});
  // The generated instance asserts value == k+1 (unsat); rebuild the
  // reachable variant manually by flipping the target bits: assert k.
  // Instead, simply check a smaller unrolling is satisfiable without the
  // final assertion: strip the last `bits` unit clauses.
  CnfFormula g(f.numVars());
  for (int i = 0; i + bits < f.numClauses(); ++i) g.addClause(f.clause(i));
  EXPECT_EQ(solveCnf(g), lbool::True);
}

TEST(Debug, InstanceIsHardFeasibleAndSoftInconsistent) {
  DebugParams dp;
  dp.circuit.numInputs = 5;
  dp.circuit.numGates = 25;
  dp.circuit.numOutputs = 2;
  dp.circuit.seed = 31;
  dp.numVectors = 3;
  dp.seed = 77;
  const DebugInstance inst = designDebugInstance(dp, /*partial=*/true);
  EXPECT_GE(inst.mismatchVectors, 1);
  EXPECT_GE(inst.errorGate, dp.circuit.numInputs);

  // Hard part alone must be satisfiable; hard+soft must not.
  CnfFormula hard(inst.wcnf.numVars());
  for (const Clause& h : inst.wcnf.hard()) hard.addClause(h);
  EXPECT_EQ(solveCnf(hard), lbool::True);

  CnfFormula all(inst.wcnf.numVars());
  for (const Clause& h : inst.wcnf.hard()) all.addClause(h);
  for (const SoftClause& s : inst.wcnf.soft()) all.addClause(s.lits);
  EXPECT_EQ(solveCnf(all), lbool::False);
}

TEST(Debug, PlainVariantIsUnsatAsCnf) {
  DebugParams dp;
  dp.circuit.numInputs = 5;
  dp.circuit.numGates = 20;
  dp.circuit.seed = 41;
  dp.numVectors = 2;
  dp.seed = 43;
  const DebugInstance inst = designDebugInstance(dp, /*partial=*/false);
  EXPECT_EQ(inst.wcnf.numHard(), 0);
  CnfFormula all(inst.wcnf.numVars());
  for (const SoftClause& s : inst.wcnf.soft()) all.addClause(s.lits);
  EXPECT_EQ(solveCnf(all), lbool::False);
}

TEST(Debug, Deterministic) {
  DebugParams dp;
  dp.circuit.seed = 51;
  dp.seed = 53;
  const DebugInstance a = designDebugInstance(dp);
  const DebugInstance b = designDebugInstance(dp);
  EXPECT_EQ(a.errorGate, b.errorGate);
  EXPECT_EQ(a.wcnf.numSoft(), b.wcnf.numSoft());
  EXPECT_EQ(a.wcnf.numHard(), b.wcnf.numHard());
}

TEST(Debug, RejectsDegenerateCircuit) {
  // Without an internal gate, drawing an error site divides by zero;
  // without an input, so does drawing a fanin; outputs beyond the gate
  // count index below gate 0.
  const auto shape = [](int inputs, int gates, int outputs) {
    DebugParams dp;
    dp.circuit.numInputs = inputs;
    dp.circuit.numGates = gates;
    dp.circuit.numOutputs = outputs;
    return dp;
  };
  for (const DebugParams& dp : {shape(8, 0, 2), shape(0, 10, 2),
                                shape(4, 10, 0), shape(4, 10, 15)}) {
    EXPECT_THROW(static_cast<void>(designDebugInstance(dp)),
                 std::invalid_argument)
        << dp.circuit.numInputs << " inputs, " << dp.circuit.numGates
        << " gates, " << dp.circuit.numOutputs << " outputs";
  }
}

TEST(Debug, RejectsMoreErrorsThanGates) {
  DebugParams dp;
  dp.circuit.numGates = 5;
  dp.numErrors = 6;
  EXPECT_THROW(static_cast<void>(designDebugInstance(dp)),
               std::invalid_argument);
}

TEST(Debug, RejectsZeroVectors) {
  DebugParams dp;
  dp.numVectors = 0;
  EXPECT_THROW(static_cast<void>(designDebugInstance(dp)),
               std::invalid_argument);
}

TEST(Debug, ThrowsWhenNoErrorIsObservable) {
  // One input feeding one gate: AND(a, a) and OR(a, a) are both a, and
  // NAND(a, a) and NOR(a, a) are both NOT a, so the injected error
  // never shows on the output.
  DebugParams dp;
  dp.circuit.numInputs = 1;
  dp.circuit.numGates = 1;
  dp.circuit.numOutputs = 1;
  for (dp.circuit.seed = 1;; ++dp.circuit.seed) {
    ASSERT_LT(dp.circuit.seed, 100u) << "no masked single-gate circuit";
    const GateType t = randomCircuit(dp.circuit).gate(1).type;
    if (t == GateType::And || t == GateType::Or || t == GateType::Nand ||
        t == GateType::Nor) {
      break;
    }
  }
  EXPECT_THROW(static_cast<void>(designDebugInstance(dp)),
               std::runtime_error);
}

}  // namespace
}  // namespace msu
