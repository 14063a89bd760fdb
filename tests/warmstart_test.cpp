/// Tests of warm-started oracle calls (Solver::Options::reuse_trail)
/// and the adaptive restart trajectory (Options::ema_restarts):
/// assumption-prefix reuse and trimming at the divergence point, warm
/// clause attachment (no-backtrack and forced-backtrack paths),
/// explicit prefix invalidation by retirement and inprocessing, the
/// both-knobs-off bit-for-bit gating contract, RestartEma units,
/// stable/focused mode switching, the SoftTracker canonical-order
/// contract, and fuzzed oracle agreement across every engine, weighted
/// instances and a 4-thread portfolio under both knobs.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cnf/oracle.h"
#include "core/soft_tracker.h"
#include "encodings/sink.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "par/portfolio.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// Solver with `n` fresh unscoped variables.
void addVars(Solver& s, int n) {
  while (s.numVars() < n) static_cast<void>(s.newVar());
}

/// Selector-style workload: assuming ~s_i (variable i) propagates x_i
/// (variable n+i) through the clause (s_i | x_i) — one decision plus
/// one implication per assumption, the engines' per-soft-clause cost.
void addSelectorChains(Solver& s, int n) {
  addVars(s, 2 * n);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(s.addClause({posLit(i), posLit(n + i)}));
  }
}

std::vector<Lit> negAssumps(int n) {
  std::vector<Lit> out;
  for (int i = 0; i < n; ++i) out.push_back(negLit(i));
  return out;
}

TEST(WarmStart, DefaultsAndGauge) {
  EXPECT_TRUE(Solver::Options{}.reuse_trail);
  EXPECT_FALSE(Solver::Options{}.ema_restarts);
}

TEST(WarmStart, RepeatedSolveReusesTheWholePrefix) {
  constexpr int kN = 20;
  Solver s;
  addSelectorChains(s, kN);
  const std::vector<Lit> assumps = negAssumps(kN);

  ASSERT_EQ(s.solve(assumps), lbool::True);
  EXPECT_EQ(s.stats().reused_trail_lits, 0);
  const std::int64_t props = s.stats().propagations;
  // The trail stays warm across the boundary: assumption vars remain
  // assigned between calls.
  EXPECT_EQ(s.value(Var{0}), lbool::False);

  ASSERT_EQ(s.solve(assumps), lbool::True);
  // All kN assumption levels were kept (decision + implied literal
  // each), and nothing needed re-propagation.
  EXPECT_GE(s.stats().reused_trail_lits, 2 * kN);
  EXPECT_EQ(s.stats().propagations, props);
}

TEST(WarmStart, TrimsToTheFirstDivergence) {
  constexpr int kN = 20;
  Solver s;
  addSelectorChains(s, kN);
  std::vector<Lit> assumps = negAssumps(kN);
  ASSERT_EQ(s.solve(assumps), lbool::True);

  // Flip the LAST assumption: 19 levels survive.
  assumps.back() = posLit(kN - 1);
  ASSERT_EQ(s.solve(assumps), lbool::True);
  const std::int64_t afterTail = s.stats().reused_trail_lits;
  EXPECT_GE(afterTail, 2 * (kN - 1));

  // Flip the FIRST assumption: nothing survives.
  assumps = negAssumps(kN);
  assumps.front() = posLit(0);
  ASSERT_EQ(s.solve(assumps), lbool::True);
  EXPECT_EQ(s.stats().reused_trail_lits, afterTail);
}

TEST(WarmStart, WarmAttachOverFreshVariablesKeepsTheTrail) {
  constexpr int kN = 10;
  Solver s;
  addSelectorChains(s, kN);
  const std::vector<Lit> assumps = negAssumps(kN);
  ASSERT_EQ(s.solve(assumps), lbool::True);
  ASSERT_EQ(s.value(Var{0}), lbool::False);  // warm

  // A clause over two fresh variables has two non-false literals:
  // attaching must not disturb the kept trail.
  const Var y = s.newVar();
  const Var z = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(y), posLit(z)}));
  EXPECT_EQ(s.value(Var{0}), lbool::False);  // still warm

  const std::int64_t props = s.stats().propagations;
  ASSERT_EQ(s.solve(assumps), lbool::True);
  // The prefix survived the warm attach; only the fresh clause's
  // variables needed any new work.
  EXPECT_LE(s.stats().propagations - props, 4);
  EXPECT_TRUE(s.modelValue(posLit(y)) == lbool::True ||
              s.modelValue(posLit(z)) == lbool::True);
}

TEST(WarmStart, FalsifiedWarmAttachBacktracksJustEnough) {
  constexpr int kN = 20;
  Solver s;
  addSelectorChains(s, kN);
  ASSERT_EQ(s.solve(negAssumps(kN)), lbool::True);

  // (s_5 | s_9) is falsified under the kept trail (both assumed away at
  // levels 6 and 10): the attach must rewind below the second-highest
  // false level, keeping assumptions 0..4 and unassigning s_5 upward.
  ASSERT_TRUE(s.addClause({posLit(5), posLit(9)}));
  EXPECT_EQ(s.value(Var{4}), lbool::False);  // level 5 kept
  EXPECT_EQ(s.value(Var{5}), lbool::Undef);  // level 6 unwound
  EXPECT_EQ(s.value(Var{9}), lbool::Undef);

  // Under the full assumption set the new clause is inconsistent; the
  // core names only assumption literals.
  ASSERT_EQ(s.solve(negAssumps(kN)), lbool::False);
  for (const Lit p : s.core()) {
    EXPECT_TRUE(p == negLit(5) || p == negLit(9));
  }
  // And the relaxed suffix is satisfiable again.
  ASSERT_EQ(s.solve(negAssumps(5)), lbool::True);
}

TEST(WarmStart, UnitClauseEntersAtTheRoot) {
  constexpr int kN = 8;
  Solver s;
  addSelectorChains(s, kN);
  ASSERT_EQ(s.solve(negAssumps(kN)), lbool::True);
  ASSERT_EQ(s.value(Var{0}), lbool::False);  // warm

  const Var u = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(u)}));
  // The unit rewound the warm trail and is now a root fact.
  EXPECT_EQ(s.value(Var{0}), lbool::Undef);
  EXPECT_EQ(s.value(u), lbool::True);
  EXPECT_EQ(s.solve(negAssumps(kN)), lbool::True);
}

TEST(WarmStart, RetirementInvalidatesThePrefix) {
  Solver s;
  SolverSink sink(s);
  addVars(s, 4);
  const ScopeHandle scope = sink.beginScope();
  sink.addClause({posLit(0), posLit(1)});
  sink.endScope(scope);

  const std::vector<Lit> assumps{negLit(2)};
  ASSERT_EQ(s.solve(assumps), lbool::True);
  ASSERT_EQ(s.value(Var{2}), lbool::False);  // warm

  sink.retireScope(scope);
  // Retirement cancelled to the root before sweeping.
  EXPECT_EQ(s.value(Var{2}), lbool::Undef);
  EXPECT_EQ(s.solve(assumps), lbool::True);
}

TEST(WarmStart, InprocessingInvalidatesThePrefix) {
  Solver::Options o;
  o.inprocess = true;
  Solver s(o);
  addSelectorChains(s, 6);
  ASSERT_EQ(s.solve(negAssumps(6)), lbool::True);
  ASSERT_EQ(s.value(Var{0}), lbool::False);  // warm

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.value(Var{0}), lbool::Undef);  // explicit invalidation
  EXPECT_EQ(s.solve(negAssumps(6)), lbool::True);
}

TEST(WarmStart, CoreStillNamesOnlyAssumptionsOnWarmRepeat) {
  Solver s;
  addVars(s, 3);
  ASSERT_TRUE(s.addClause({posLit(0), posLit(1)}));
  const std::vector<Lit> assumps{negLit(0), negLit(1), negLit(2)};
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(s.solve(assumps), lbool::False);
    for (const Lit p : s.core()) {
      EXPECT_TRUE(p == negLit(0) || p == negLit(1)) << "round " << round;
    }
  }
}

TEST(WarmStart, BothKnobsOffIsTheColdDeterministicEngine) {
  // The PR 4 gating contract: with reuse_trail and ema_restarts off the
  // solver must behave exactly like the cancelUntil(0)-per-solve engine
  // — cold between calls, zero reuse, and bit-for-bit deterministic
  // across identical incremental scripts.
  const CnfFormula f = randomKSat(
      {.numVars = 30, .numClauses = 126, .clauseLen = 3, .seed = 9});
  SolverStats st[2];
  for (int run = 0; run < 2; ++run) {
    Solver::Options o;
    o.reuse_trail = false;
    o.ema_restarts = false;
    Solver s(o);
    addVars(s, f.numVars() + 4);
    for (const Clause& cl : f.clauses()) ASSERT_TRUE(s.addClause(cl));
    for (int call = 0; call < 6; ++call) {
      const std::vector<Lit> assumps{Lit(30, (call & 1) != 0),
                                     Lit(31 + call % 3, false)};
      static_cast<void>(s.solve(assumps));
      // Cold engine: the trail never survives a solve.
      EXPECT_EQ(s.value(Var{31 + call % 3}), lbool::Undef);
      ASSERT_TRUE(s.addClause(
          {Lit(call % 30, true), Lit((call * 7 + 3) % 30, false)}));
    }
    st[run] = s.stats();
    EXPECT_EQ(st[run].reused_trail_lits, 0);
    EXPECT_EQ(st[run].mode_switches, 0);
    EXPECT_EQ(st[run].restarts_blocked, 0);
  }
  EXPECT_EQ(st[0].decisions, st[1].decisions);
  EXPECT_EQ(st[0].conflicts, st[1].conflicts);
  EXPECT_EQ(st[0].propagations, st[1].propagations);
  EXPECT_EQ(st[0].learnt_clauses, st[1].learnt_clauses);
  EXPECT_EQ(st[0].restarts, st[1].restarts);
}

TEST(WarmStart, WarmEngineIsDeterministicToo) {
  const CnfFormula f = randomKSat(
      {.numVars = 10, .numClauses = 50, .clauseLen = 3, .seed = 12});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  MaxSatResult r[2];
  for (int run = 0; run < 2; ++run) {
    std::unique_ptr<MaxSatSolver> solver = makeSolver("msu4-v2", {});
    ASSERT_NE(solver, nullptr);
    r[run] = solver->solve(w);
    ASSERT_EQ(r[run].status, MaxSatStatus::Optimum);
  }
  EXPECT_EQ(r[0].cost, r[1].cost);
  EXPECT_EQ(r[0].satCalls, r[1].satCalls);
  EXPECT_EQ(r[0].satStats.conflicts, r[1].satStats.conflicts);
  EXPECT_EQ(r[0].satStats.reused_trail_lits, r[1].satStats.reused_trail_lits);
}

TEST(RestartEma, SeedsAndTriggersOnFastOverSlow) {
  RestartEma e;
  e.update(5.0);
  EXPECT_DOUBLE_EQ(e.fast.value, 5.0);
  EXPECT_DOUBLE_EQ(e.slow.value, 5.0);
  EXPECT_FALSE(e.shouldRestart(1.25));

  // A burst of much worse (higher-LBD) conflicts: the fast average
  // rises toward 10 while the slow one barely moves.
  for (int i = 0; i < 200; ++i) e.update(10.0);
  EXPECT_GT(e.fast.value, 9.0);
  EXPECT_LT(e.slow.value, 5.5);
  EXPECT_TRUE(e.shouldRestart(1.25));
}

TEST(RestartEma, BlockCapsTheFastAverage) {
  RestartEma e;
  e.update(4.0);
  for (int i = 0; i < 200; ++i) e.update(12.0);
  ASSERT_TRUE(e.shouldRestart(1.25));
  e.block();
  EXPECT_FALSE(e.shouldRestart(1.25));
  EXPECT_DOUBLE_EQ(e.fast.value, e.slow.value);
  // And it only ever caps downward.
  const double slow = e.slow.value;
  e.block();
  EXPECT_DOUBLE_EQ(e.slow.value, slow);
}

TEST(RestartEma, LowLbdStreamNeverFires) {
  RestartEma e;
  for (int i = 0; i < 1000; ++i) e.update(3.0);
  EXPECT_FALSE(e.shouldRestart(1.25));
}

TEST(EmaRestarts, SolvesAndSwitchesModes) {
  Solver::Options o;
  o.ema_restarts = true;
  o.mode_switch_conflicts = 100;  // exercise switching on a small run
  Solver s(o);
  const CnfFormula f = randomUnsat3Sat(50, 6.0, 21);
  addVars(s, f.numVars());
  for (const Clause& cl : f.clauses()) {
    if (!s.addClause(cl)) break;
  }
  EXPECT_EQ(s.solve(), lbool::False);
  EXPECT_GT(s.stats().restarts, 0);
  // The gauge reports an EMA mode (2 = focused, 3 = stable).
  EXPECT_GE(s.stats().restart_mode, 2);
  EXPECT_LE(s.stats().restart_mode, 3);
  if (s.stats().conflicts > 300) {
    EXPECT_GE(s.stats().mode_switches, 1);
  }
}

TEST(SoftTrackerContract, AssumptionsAreCanonicallyVarOrdered) {
  const CnfFormula f = randomKSat(
      {.numVars = 12, .numClauses = 30, .clauseLen = 3, .seed = 3});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  Solver s;
  SoftTracker tracker(s, w);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 5; ++round) {
    tracker.relax(static_cast<int>(rng() % static_cast<std::uint64_t>(
                                       tracker.numSoft())));
    const std::vector<Lit> assumps = tracker.assumptions();
    for (std::size_t i = 1; i < assumps.size(); ++i) {
      EXPECT_LT(assumps[i - 1].var(), assumps[i].var());
    }
  }
}

TEST(WarmStart, EngineFuzzAgreesWithOracleUnderBothKnobs) {
  const std::vector<std::string> engines{"msu4-v1", "msu4-v2", "msu3",   "msu1",
                                         "oll",     "linear",  "binary"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CnfFormula f = randomKSat({.numVars = 8,
                                     .numClauses = 44,
                                     .clauseLen = 3,
                                     .seed = seed * 41});
    const WcnfFormula w = WcnfFormula::allSoft(f);
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    for (const std::string& name : engines) {
      for (int mode = 0; mode < 3; ++mode) {
        MaxSatOptions o;
        o.sat.reuse_trail = mode != 0;      // 0: off, 1+: on
        o.sat.ema_restarts = mode == 2;     // 2: on + adaptive restarts
        o.sat.mode_switch_conflicts = 100;  // exercise switching
        if (mode == 2) o.trimCoreRounds = 1;  // warm trimCore re-solves
        std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
        ASSERT_NE(solver, nullptr) << name;
        const MaxSatResult r = solver->solve(w);
        ASSERT_EQ(r.status, MaxSatStatus::Optimum)
            << name << " seed " << seed << " mode " << mode;
        EXPECT_EQ(r.cost, *truth.optimumCost)
            << name << " seed " << seed << " mode " << mode;
        EXPECT_EQ(w.cost(r.model), r.cost)
            << name << " seed " << seed << " mode " << mode;
      }
    }
  }
}

TEST(WarmStart, WeightedEngineFuzzAgreesWithOracle) {
  std::mt19937_64 rng(515);
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
      for (const bool ema : {false, true}) {
        MaxSatOptions o;
        o.sat.ema_restarts = ema;  // reuse_trail stays at its default
        std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
        ASSERT_NE(solver, nullptr) << name;
        const MaxSatResult r = solver->solve(w);
        ASSERT_EQ(r.status, MaxSatStatus::Optimum)
            << name << " round " << round << " ema " << ema;
        EXPECT_EQ(r.cost, *truth.optimumCost)
            << name << " round " << round << " ema " << ema;
      }
    }
  }
}

TEST(WarmStart, PortfolioFuzzAgreesWithOracle) {
  // 4 diversified workers (some on the EMA trajectory via the factory
  // perturbation), warm starts at their default.
  std::mt19937_64 rng(2718);
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
    PortfolioSolver solver(po);
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "round " << round;
  }
}

}  // namespace
}  // namespace msu
