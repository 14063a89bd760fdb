/// Tests of the in-solver inprocessing subsystem (Options::inprocess):
/// deterministic units for satisfied-clause removal, backward
/// subsumption and self-subsuming strengthening (including the
/// promotion of a learnt binary subsumer before elimination); the scope
/// rules (tag preservation under retirement, frozen selector
/// variables); gating (off by default, no pass = no behavioural
/// change); and fuzzed oracle agreement at the raw solver level, across
/// every MaxSAT engine and under a 4-thread portfolio.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cnf/oracle.h"
#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "par/portfolio.h"
#include "sat/solver.h"

namespace msu {
namespace {

Solver::Options inprocOpts() {
  Solver::Options o;
  o.inprocess = true;
  return o;
}

/// Strip and subsume only. The targeted units below assert exact
/// clause counts and per-stage counters; variable elimination would
/// eliminate these tiny formulas outright and void the assertions. BVE
/// has its own targeted tests in elimination_test.cpp /
/// reconstruction_test.cpp, and the fuzz tests in this file keep every
/// stage enabled.
Solver::Options noBveOpts() {
  Solver::Options o = inprocOpts();
  o.inprocess_bve_occ_limit = 0;
  return o;
}

/// Solver with `n` fresh unscoped variables.
void addVars(Solver& s, int n) {
  while (s.numVars() < n) static_cast<void>(s.newVar());
}

TEST(Inprocess, SubsumptionRemovesDuplicatesAndSupersets) {
  Solver s(noBveOpts());
  addVars(s, 5);
  const Lit a = posLit(0);
  const Lit b = posLit(1);
  const Lit c = posLit(2);
  const Lit d = posLit(3);
  ASSERT_TRUE(s.addClause({a, b, c}));
  ASSERT_TRUE(s.addClause({a, b, c, d}));  // superset of the first
  ASSERT_TRUE(s.addClause({a, b, c}));     // exact duplicate
  ASSERT_EQ(s.numClauses(), 3);

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.numClauses(), 1);
  EXPECT_EQ(s.stats().inproc_subsumed, 2);
  EXPECT_EQ(s.stats().inproc_passes, 1);
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Inprocess, BinarySubsumerDeletesAndStrengthens) {
  Solver s(noBveOpts());
  addVars(s, 4);
  const Lit a = posLit(0);
  const Lit b = posLit(1);
  const Lit c = posLit(2);
  ASSERT_TRUE(s.addClause({a, b}));         // binary subsumer
  ASSERT_TRUE(s.addClause({a, b, c}));      // subsumed outright
  ASSERT_TRUE(s.addClause({~a, b, c}));     // self-subsumed: drop ~a
  ASSERT_EQ(s.numClauses(), 3);

  ASSERT_TRUE(s.inprocessNow());
  // {a,b,c} deleted; {~a,b,c} strengthened to the binary {b,c}.
  EXPECT_EQ(s.numClauses(), 2);
  EXPECT_EQ(s.stats().inproc_subsumed, 1);
  EXPECT_GE(s.stats().inproc_strengthened, 1);
  EXPECT_GE(s.stats().inproc_lits_removed, 1);
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Inprocess, SelfSubsumingResolutionOnLongClauses) {
  Solver s(noBveOpts());
  addVars(s, 5);
  const Lit a = posLit(0);
  const Lit b = posLit(1);
  const Lit c = posLit(2);
  const Lit d = posLit(3);
  const Lit e = posLit(4);
  ASSERT_TRUE(s.addClause({a, b, c}));
  ASSERT_TRUE(s.addClause({~a, b, c, d}));  // strengthens to {b,c,d}
  ASSERT_TRUE(s.addClause({a, b, c, d, e}));  // subsumed by the first
  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_subsumed, 1);
  EXPECT_GE(s.stats().inproc_strengthened, 1);
  EXPECT_EQ(s.numClauses(), 2);
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Inprocess, TopLevelSatisfiedRemovalAndFalseLiteralStripping) {
  Solver s(noBveOpts());
  addVars(s, 5);
  const Lit a = posLit(0);
  const Lit b = posLit(1);
  const Lit c = posLit(2);
  const Lit d = posLit(3);
  const Lit e = posLit(4);
  ASSERT_TRUE(s.addClause({a, b, c}));
  ASSERT_TRUE(s.addClause({~a, c, d, e}));
  ASSERT_TRUE(s.addClause({a}));  // unit: satisfies the first clause
  ASSERT_TRUE(s.inprocessNow());
  // {a,b,c} satisfied and removed; {~a,c,d,e} stripped to {c,d,e}.
  EXPECT_GE(s.stats().inproc_removed_sat, 1);
  EXPECT_GE(s.stats().inproc_strengthened, 1);
  EXPECT_GE(s.stats().inproc_lits_removed, 1);
  EXPECT_EQ(s.numClauses(), 1);
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Inprocess, LearntBinarySubsumerIsPromotedBeforeElimination) {
  // A learnt binary that subsumes an original clause becomes that
  // clause's only representative, and BVE deletes learnt binaries
  // without a witness. Subsumption must therefore promote the binary;
  // otherwise eliminating p drops (p | q | r), and the model below
  // comes back with all three false.
  Solver s(inprocOpts());
  addVars(s, 5);
  const Lit p = posLit(0);
  const Lit q = posLit(1);
  const Lit r = posLit(2);
  const Lit x = posLit(3);
  const Lit y = posLit(4);
  for (const Lit keep : {q, r, y}) s.setFrozen(keep.var(), true);
  const std::vector<Clause> original{{p, q, x}, {p, q, ~x}, {p, q, r}, {~p, y}};
  for (const Clause& c : original) ASSERT_TRUE(s.addClause(c));
  // Under ~q and ~p the first two clauses conflict on x: the solver
  // learns the binary (p | q), which subsumes the first three clauses.
  const std::vector<Lit> refuted{~q, ~p};
  ASSERT_EQ(s.solve(refuted), lbool::False);
  ASSERT_EQ(s.numLearnts(), 1);

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_subsumed, 3);
  EXPECT_EQ(s.stats().inproc_bve_eliminated, 1);  // p; (p | q) is a witness

  const std::vector<Lit> assumps{~q, ~r};
  ASSERT_EQ(s.solve(assumps), lbool::True);
  for (const Clause& c : original) {
    bool sat = false;
    for (const Lit l : c) sat = sat || s.modelValue(l) == lbool::True;
    EXPECT_TRUE(sat);
  }
  EXPECT_EQ(s.modelValue(p), lbool::True);
}

TEST(Inprocess, StrengthenedScopeClauseKeepsItsTagThroughRetirement) {
  Solver s(noBveOpts());
  SolverSink sink(s);
  addVars(s, 4);
  const Lit x0 = posLit(0);
  const Lit x1 = posLit(1);
  const Lit x2 = posLit(2);

  const ScopeHandle act = sink.beginScope();
  sink.addClause({x0, x1, x2});  // emitted as (x0|x1|x2|~act), tagged
  sink.endScope(act);
  const int withScope = s.numClauses();

  // A global binary that self-subsumes the scoped clause: removing x1
  // must leave the clause tagged (and guarded), so retirement still
  // deletes it.
  ASSERT_TRUE(s.addClause({x0, ~x1}));
  ASSERT_TRUE(s.inprocessNow());
  EXPECT_GE(s.stats().inproc_strengthened, 1);
  EXPECT_EQ(s.numClauses(), withScope + 1);

  const std::int64_t retiredBefore = s.stats().retired_clauses;
  s.retire(act.activator());
  EXPECT_EQ(s.stats().retired_clauses, retiredBefore + 1);
  EXPECT_EQ(s.numClauses(), 1);  // only the global binary remains
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Inprocess, FrozenVariablesKeepTheirLiterals) {
  const auto run = [](bool freeze) {
    Solver s(inprocOpts());
    addVars(s, 4);
    const Lit a = posLit(0);
    const Lit b = posLit(1);
    const Lit sel = posLit(2);
    if (freeze) s.setFrozen(sel.var(), true);
    // (a|b|sel) would be strengthened to (a|b) by (a|~sel) — unless the
    // selector is frozen, as a soft-clause tracker requires.
    static_cast<void>(s.addClause({a, b, sel}));
    static_cast<void>(s.addClause({a, ~sel}));
    static_cast<void>(s.inprocessNow());
    return s.stats().inproc_strengthened;
  };
  EXPECT_EQ(run(/*freeze=*/true), 0);
  EXPECT_GE(run(/*freeze=*/false), 1);
}

TEST(Inprocess, DisabledByDefaultAndInertWithoutAPass) {
  // The knob documents the measured default; a pass must never run when
  // it is off, and an enabled solver whose interval never fires must be
  // bit-for-bit the plain engine.
  EXPECT_FALSE(Solver::Options{}.inprocess);

  const CnfFormula f = randomKSat(
      {.numVars = 40, .numClauses = 180, .clauseLen = 3, .seed = 5});
  SolverStats st[2];
  for (int mode = 0; mode < 2; ++mode) {
    Solver::Options o;
    o.inprocess = mode == 1;
    o.inprocess_interval = 1'000'000'000;  // never fires on its own
    Solver s(o);
    addVars(s, f.numVars());
    for (const Clause& cl : f.clauses()) ASSERT_TRUE(s.addClause(cl));
    ASSERT_NE(s.solve(), lbool::Undef);
    st[mode] = s.stats();
  }
  EXPECT_EQ(st[1].inproc_passes, 0);
  EXPECT_EQ(st[0].decisions, st[1].decisions);
  EXPECT_EQ(st[0].conflicts, st[1].conflicts);
  EXPECT_EQ(st[0].propagations, st[1].propagations);
  EXPECT_EQ(st[0].learnt_clauses, st[1].learnt_clauses);
}

TEST(Inprocess, SolverScopeFuzzWithInprocessMatchesOracle) {
  // The retirement fuzz with a pass forced at every solve boundary:
  // random interleavings of scope create / retire / enforce toggles
  // over cardinality encodings, brute-force-checked at every step.
  constexpr int kVars = 9;
  std::mt19937_64 rng(4031);

  for (int round = 0; round < 6; ++round) {
    const CnfFormula base =
        randomKSat({.numVars = kVars,
                    .numClauses = 18,
                    .clauseLen = 3,
                    .seed = 2000 + static_cast<std::uint64_t>(round)});
    Solver::Options so = inprocOpts();
    so.inprocess_interval = 1;  // pass at every boundary
    Solver s(so);
    SolverSink sink(s);
    addVars(s, kVars);
    bool ok = true;
    for (const Clause& c : base.clauses()) ok = ok && s.addClause(c);

    struct LiveScope {
      ScopeHandle act;
      std::vector<Lit> lits;
      int k = 0;
      bool enforced = true;
    };
    std::vector<LiveScope> scopes;

    const auto truthSat = [&]() {
      for (std::uint32_t mask = 0; mask < (1u << kVars); ++mask) {
        Assignment a(kVars);
        for (int v = 0; v < kVars; ++v) {
          a[static_cast<std::size_t>(v)] =
              ((mask >> v) & 1u) != 0 ? lbool::True : lbool::False;
        }
        if (!base.satisfies(a)) continue;
        bool good = true;
        for (const LiveScope& sc : scopes) {
          if (!sc.enforced) continue;
          int pop = 0;
          for (Lit p : sc.lits) {
            if (applySign(a[static_cast<std::size_t>(p.var())], p) ==
                lbool::True) {
              ++pop;
            }
          }
          if (pop > sc.k) {
            good = false;
            break;
          }
        }
        if (good) return true;
      }
      return false;
    };

    for (int step = 0; step < 24 && ok && s.okay(); ++step) {
      const int action = static_cast<int>(rng() % 4);
      if (action == 0 || scopes.empty()) {
        LiveScope sc;
        const int width = 2 + static_cast<int>(rng() % 5);
        for (int i = 0; i < width; ++i) {
          sc.lits.push_back(
              Lit(static_cast<Var>(rng() % kVars), (rng() & 1) != 0));
        }
        sc.k = static_cast<int>(rng() % static_cast<std::uint64_t>(width));
        const CardEncoding enc = static_cast<CardEncoding>(rng() % 3);
        sc.act = sink.beginScope();
        encodeAtMost(sink, sc.lits, sc.k, enc);
        sink.endScope(sc.act);
        scopes.push_back(std::move(sc));
      } else if (action == 1) {
        const std::size_t i = rng() % scopes.size();
        sink.retireScope(scopes[i].act);
        scopes.erase(scopes.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const std::size_t i = rng() % scopes.size();
        scopes[i].enforced = !scopes[i].enforced;
        sink.setScopeEnforced(scopes[i].act, scopes[i].enforced);
      }

      const lbool st = s.solve();
      ASSERT_NE(st, lbool::Undef);
      EXPECT_EQ(st == lbool::True, truthSat())
          << "round " << round << " step " << step;
      if (st == lbool::False && s.core().empty()) break;  // base refuted
    }
    EXPECT_GT(s.stats().inproc_passes, 0) << "round " << round;
  }
}

TEST(Inprocess, EngineFuzzWithInprocessAgreesWithOracle) {
  const std::vector<std::string> engines{"msu4-v1", "msu4-v2", "msu3",   "msu1",
                                         "oll",     "linear",  "binary"};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CnfFormula f = randomKSat({.numVars = 8,
                                     .numClauses = 44,
                                     .clauseLen = 3,
                                     .seed = seed * 29});
    const WcnfFormula w = WcnfFormula::allSoft(f);
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    for (const std::string& name : engines) {
      MaxSatOptions o;
      o.sat.inprocess = true;
      o.sat.inprocess_interval = 200;  // many passes per run
      std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
      ASSERT_NE(solver, nullptr) << name;
      const MaxSatResult r = solver->solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << name << " seed " << seed;
      EXPECT_EQ(r.cost, *truth.optimumCost) << name << " seed " << seed;
      EXPECT_EQ(w.cost(r.model), r.cost) << name << " seed " << seed;
    }
  }
}

TEST(Inprocess, WeightedEngineFuzzWithInprocessAgreesWithOracle) {
  std::mt19937_64 rng(977);
  const std::vector<std::string> engines{"msu1", "oll", "linear", "bmo"};
  for (int round = 0; round < 4; ++round) {
    WcnfFormula w(8);
    for (int i = 0; i < 12; ++i) {
      Clause c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 8), (rng() & 1) != 0));
      }
      w.addHard(c);
    }
    for (int i = 0; i < 10; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 8), (rng() & 1) != 0));
      }
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 5));
    }
    const OracleResult truth = oracleMaxSat(w);
    if (!truth.optimumCost.has_value()) continue;  // hard part unsat
    for (const std::string& name : engines) {
      MaxSatOptions o;
      o.sat.inprocess = true;
      o.sat.inprocess_interval = 200;
      std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
      ASSERT_NE(solver, nullptr) << name;
      const MaxSatResult r = solver->solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << name << " round " << round;
      EXPECT_EQ(r.cost, *truth.optimumCost) << name << " round " << round;
    }
  }
}

TEST(Inprocess, SessionRetirementTriggersAPass) {
  // msu4 with the BDD encoding re-encodes its bound on an improvement,
  // and the bound's encoder retires the old structure itself (through
  // the clause sink, not the session). On this instance it retires
  // several scopes; at least one is followed by another oracle call,
  // which must run the scheduled pass although the interval never fires.
  const CnfFormula f = randomKSat(
      {.numVars = 12, .numClauses = 72, .clauseLen = 3, .seed = 79});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  MaxSatOptions o;
  o.sat.inprocess = true;
  o.sat.inprocess_interval = 1'000'000'000;  // only retirement triggers
  std::unique_ptr<MaxSatSolver> solver = makeSolver("msu4-v1", o);
  ASSERT_NE(solver, nullptr);
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_GE(r.satStats.retired_scopes, 2);
  EXPECT_GE(r.satStats.inproc_passes, 1);
}

TEST(Inprocess, PortfolioFuzzWithInprocessAgreesWithOracle) {
  // 4 diversified workers racing with clause sharing, every engine
  // inprocessing aggressively — optimum must match the oracle.
  std::mt19937_64 rng(31337);
  for (int round = 0; round < 3; ++round) {
    WcnfFormula w(8);
    for (int i = 0; i < 10; ++i) {
      Clause c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 8), (rng() & 1) != 0));
      }
      w.addHard(c);
    }
    for (int i = 0; i < 10; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 8), (rng() & 1) != 0));
      }
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 3));
    }
    const OracleResult truth = oracleMaxSat(w);
    if (!truth.optimumCost.has_value()) continue;
    PortfolioOptions po;
    po.threads = 4;
    po.base.sat.inprocess = true;
    po.base.sat.inprocess_interval = 200;
    PortfolioSolver solver(po);
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "round " << round;
  }
}

}  // namespace
}  // namespace msu
