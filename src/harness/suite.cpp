#include "harness/suite.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "gen/bmc.h"
#include "gen/debug.h"
#include "gen/graphs.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "gen/arith.h"
#include "gen/tpg.h"

namespace msu {
namespace {

std::string numbered(const std::string& base, int i) {
  std::string n = std::to_string(i);
  if (n.size() < 2) n = "0" + n;
  return base + "-" + n;
}

int scaled(double base, double scale) {
  return std::max(1, static_cast<int>(std::lround(base * scale)));
}

/// Appends the plain-MaxSAT debugging instance of `dp`, if there is one.
void addDebugInstance(std::vector<Instance>& suite, std::string name,
                      const DebugParams& dp) {
  try {
    suite.push_back(Instance{std::move(name), "debug",
                             designDebugInstance(dp, /*partial=*/false).wcnf});
  } catch (const std::runtime_error&) {
    // No sampled vector exposes an injected error in this design, so
    // there is nothing to debug: the family comes out one short.
  }
}

}  // namespace

std::vector<Instance> buildMixedSuite(const SuiteParams& params) {
  std::vector<Instance> suite;
  const double s = params.sizeScale;
  const std::uint64_t seed = params.seed;

  // Equivalence-checking miters: random circuit vs. its rewrite. Sized
  // so that search-without-learning (the B&B baseline) degrades the way
  // the paper reports for industrial instances.
  for (int i = 0; i < params.perFamily; ++i) {
    RandomCircuitParams cp;
    cp.numInputs = 10 + i;
    cp.numGates = scaled(240.0 + 180.0 * i, s);
    cp.numOutputs = 2 + (i % 3);
    cp.seed = seed + static_cast<std::uint64_t>(i);
    CnfFormula cnf = equivalenceInstance(cp, seed + 1000 + i);
    suite.push_back(Instance{numbered("eq-miter", i), "equivalence",
                             WcnfFormula::allSoft(cnf)});
  }

  // BMC unrollings of the counter design (register width grows with the
  // depth so the target stays unreachable).
  for (int i = 0; i < params.perFamily; ++i) {
    BmcCounterParams bp;
    bp.steps = scaled(24.0 + 10.0 * i, s);
    bp.bits = 6;
    while ((std::int64_t{1} << bp.bits) <= bp.steps + 1) ++bp.bits;
    CnfFormula cnf = bmcCounterInstance(bp);
    suite.push_back(
        Instance{numbered("bmc-counter", i), "bmc", WcnfFormula::allSoft(cnf)});
  }

  // Design debugging (plain MaxSAT flavour for the mixed suite). Higher
  // indices inject several errors, so optima grow and the cardinality
  // machinery of the core-guided solvers is genuinely exercised.
  for (int i = 0; i < params.perFamily; ++i) {
    DebugParams dp;
    dp.circuit.numInputs = 7 + (i % 4);
    dp.circuit.numGates = scaled(240.0 + 170.0 * i, s);
    dp.circuit.numOutputs = 3;
    dp.circuit.seed = seed + 2000 + static_cast<std::uint64_t>(i);
    dp.numVectors = 3 + i / 2;
    dp.numErrors = 1 + i / 3;
    dp.seed = seed + 3000 + static_cast<std::uint64_t>(i);
    addDebugInstance(suite, numbered("debug", i), dp);
  }

  // Test-pattern generation: redundant (untestable) stuck-at faults.
  for (int i = 0; i < params.perFamily; ++i) {
    RandomCircuitParams cp;
    cp.numInputs = 9 + i;
    cp.numGates = scaled(440.0 + 320.0 * i, s);
    cp.numOutputs = 2 + (i % 2);
    cp.seed = seed + 7000 + static_cast<std::uint64_t>(i);
    CnfFormula cnf = untestableFaultInstance(cp, seed + 8000 + i);
    suite.push_back(
        Instance{numbered("tpg", i), "tpg", WcnfFormula::allSoft(cnf)});
  }

  // Arithmetic equivalence checking: ripple-carry vs Kogge-Stone adder
  // miters and a multiplier commutativity miter — deterministic, classic
  // EqCheck workloads.
  for (int i = 0; i < std::max(params.perFamily / 2, 2); ++i) {
    const int bits = scaled(8.0 + 6.0 * i, s);
    suite.push_back(Instance{numbered("adder-rc-ks", i), "arith",
                             WcnfFormula::allSoft(
                                 adderEquivalenceMiter(bits))});
  }
  suite.push_back(Instance{"mult-comm-3", "arith",
                           WcnfFormula::allSoft(
                               multiplierCommutativityMiter(3))});

  // Over-constrained random 3-SAT: a *control* family (not in the
  // paper's industrial suite) documenting the known crossover — B&B
  // beats core-guided search on dense random MaxSAT.
  for (int i = 0; i < std::max(params.perFamily / 2, 2); ++i) {
    const int n = scaled(50.0 + 15.0 * i, s);
    CnfFormula cnf =
        randomUnsat3Sat(n, 5.2 + 0.3 * (i % 4), seed + 4000 + i);
    suite.push_back(
        Instance{numbered("rnd3sat", i), "random", WcnfFormula::allSoft(cnf)});
  }

  // Pigeonhole controls (hard for everyone as holes grow).
  for (int i = 0; i < std::min(std::max(params.perFamily / 2, 2), 6); ++i) {
    const int holes = 4 + i;
    CnfFormula cnf = pigeonhole(holes + 1, holes);
    suite.push_back(
        Instance{numbered("php", i), "php", WcnfFormula::allSoft(cnf)});
  }

  return suite;
}

std::vector<Instance> buildDebugSuite(const SuiteParams& params) {
  std::vector<Instance> suite;
  const double s = params.sizeScale;
  const int count = std::max(params.perFamily, 8);
  for (int i = 0; i < count; ++i) {
    DebugParams dp;
    dp.circuit.numInputs = 6 + (i % 5);
    dp.circuit.numGates = scaled(160.0 + 110.0 * i, s);
    dp.circuit.numOutputs = 2 + (i % 3);
    dp.circuit.seed = params.seed + 5000 + static_cast<std::uint64_t>(i);
    dp.numVectors = 3 + (i % 4);
    dp.seed = params.seed + 6000 + static_cast<std::uint64_t>(i);
    addDebugInstance(suite, numbered("debug", i), dp);
  }
  return suite;
}

std::vector<Instance> buildWeightedSuite(const SuiteParams& params) {
  std::vector<Instance> suite;
  const double sc = params.sizeScale;
  std::uint64_t seed = params.seed + 90000;
  for (int i = 0; i < params.perFamily; ++i) {
    TimetableParams tp;
    tp.numEvents = scaled(14.0 + 2.0 * i, sc);
    tp.numSlots = 4;
    tp.conflictProbability = 0.30;
    tp.preferencesPerEvent = 3;
    tp.maxPreferenceWeight = 8;
    tp.seed = seed++;
    suite.push_back({"timetable-" + std::to_string(i), "timetable",
                     timetablingInstance(tp)});
  }
  for (int i = 0; i < params.perFamily; ++i) {
    const Graph g = randomGraph(scaled(13.0 + i, sc), 0.45, seed++);
    std::vector<Weight> weights;
    std::mt19937_64 wrng(seed++);
    weights.reserve(g.edges.size());
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      weights.push_back(1 + static_cast<Weight>(wrng() % 9));
    }
    suite.push_back({"wmaxcut-" + std::to_string(i), "wmaxcut",
                     maxCutInstance(g, weights)});
  }
  for (int i = 0; i < params.perFamily; ++i) {
    const Graph g =
        ringWithChords(scaled(12.0 + 2.0 * i, sc), 8 + i, seed++);
    suite.push_back(
        {"coloring-" + std::to_string(i), "coloring", coloringInstance(g, 3)});
  }
  return suite;
}

}  // namespace msu
