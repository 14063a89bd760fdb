/// Tests of the model-reconstruction witness stack (sat/reconstruct.h)
/// and of the end-to-end reconstruction contract: deterministic units
/// for replay and restorable extraction; reconstruction surviving scope
/// retirement and variable recycling; a randomized fuzz interleaving
/// variable-eliminating inprocessing with scope
/// creation / retirement / warm solves / incremental clauses against a
/// brute-force oracle with full model verification; and engine-level
/// totality of returned models under aggressive inprocessing.

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
#include "sat/reconstruct.h"
#include "sat/solver.h"

namespace msu {
namespace {

void addVars(Solver& s, int n) {
  while (s.numVars() < n) static_cast<void>(s.newVar());
}

bool modelSat(const Solver& s, const Clause& c) {
  for (const Lit p : c) {
    if (s.modelValue(p) == lbool::True) return true;
  }
  return false;
}

TEST(Reconstruction, ExtendFlipsTheWitnessOnlyWhenNeeded) {
  WitnessStack w;
  const std::vector<Lit> clause{posLit(0), posLit(2)};
  w.pushClause(posLit(2), clause);

  // Clause already satisfied: the witness variable is left alone.
  std::vector<lbool> sat{lbool::True, lbool::False, lbool::Undef};
  w.extend(sat);
  EXPECT_EQ(sat[2], lbool::Undef);

  // Clause unsatisfied (Undef never satisfies): the witness is set.
  std::vector<lbool> unsat{lbool::False, lbool::False, lbool::Undef};
  w.extend(unsat);
  EXPECT_EQ(unsat[2], lbool::True);
}

TEST(Reconstruction, ExtractRestorableKeepsOrderAndTheRest) {
  WitnessStack w;
  const std::vector<Lit> c1{posLit(0), posLit(1)};
  const std::vector<Lit> c2{posLit(2), posLit(4)};
  const std::vector<Lit> c3{negLit(0), posLit(3)};
  const std::vector<Lit> c4{posLit(4), posLit(1)};
  w.pushClause(posLit(0), c1);
  w.pushClause(posLit(2), c2);
  w.pushClause(negLit(0), c3);
  w.pushClause(posLit(4), c4);
  ASSERT_EQ(w.size(), 4u);

  std::vector<std::vector<Lit>> out;
  w.extractRestorable(0, out);
  ASSERT_EQ(out.size(), 2u);  // c1 and c3, in push order
  EXPECT_EQ(out[0], c1);
  EXPECT_EQ(out[1], c3);
  EXPECT_EQ(w.size(), 2u);  // v2's and v4's entries remain

  // The survivors still replay newest first: with v1 false, v4's clause
  // (v4 | v1) sets v4, which satisfies v2's older clause (v2 | v4), so
  // v2 is left alone. Swapped survivors would set v2 as well.
  std::vector<lbool> m{lbool::True, lbool::False, lbool::Undef, lbool::Undef,
                       lbool::Undef};
  w.extend(m);
  EXPECT_EQ(m[4], lbool::True);
  EXPECT_EQ(m[2], lbool::Undef);
}

TEST(Reconstruction, NewestFirstReplayComposesInterleavedPasses) {
  // An older witness clause may name a variable eliminated *later*:
  // here v0's clause (v0 | v1) is pushed before v1 is eliminated with
  // (v1 | v2) and (~v1 | ~v2). v1's entries sit above v0's and fix v1
  // first. Replaying oldest first instead would leave v0 false on v1's
  // stale value, and (v0 | v1) false once v1 flips.
  WitnessStack w;
  const std::vector<Lit> c0{posLit(0), posLit(1)};
  const std::vector<Lit> c1{posLit(1), posLit(2)};
  const std::vector<Lit> c2{negLit(1), negLit(2)};
  w.pushClause(posLit(0), c0);
  w.pushClause(posLit(1), c1);
  w.pushClause(negLit(1), c2);
  std::vector<lbool> m{lbool::False, lbool::True, lbool::True};
  w.extend(m);
  EXPECT_EQ(m[1], lbool::False);
  EXPECT_EQ(m[0], lbool::True);
}

TEST(Reconstruction, SurvivesScopeRetirementAndVariableRecycling) {
  // Eliminate a plain variable, then run a scope through its full
  // lifecycle twice (the second one reuses the recycled variables).
  // The witness references no scope variable by construction, so the
  // reconstructed model must keep satisfying the removed clauses
  // throughout.
  Solver::Options o;
  o.inprocess = true;
  Solver s(o);
  SolverSink sink(s);
  addVars(s, 5);
  for (const Var v : {0, 1, 3, 4}) s.setFrozen(v, true);
  const std::vector<Clause> original{{posLit(0), posLit(1), posLit(2)},
                                     {posLit(3), posLit(4), negLit(2)}};
  for (const Clause& c : original) ASSERT_TRUE(s.addClause(c));
  ASSERT_TRUE(s.inprocessNow());
  ASSERT_GE(s.stats().inproc_bve_eliminated, 1);

  const std::vector<Lit> bound{posLit(0), posLit(1), posLit(3)};
  for (int cycle = 0; cycle < 2; ++cycle) {
    const ScopeHandle sc = sink.beginScope();
    encodeAtMost(sink, bound, 1, CardEncoding::Bdd);
    sink.endScope(sc);
    ASSERT_EQ(s.solve(), lbool::True) << "cycle " << cycle;
    for (const Clause& c : original) EXPECT_TRUE(modelSat(s, c));
    int pop = 0;
    for (const Lit p : bound) {
      if (s.modelValue(p) == lbool::True) ++pop;
    }
    EXPECT_LE(pop, 1) << "cycle " << cycle;

    sink.retireScope(sc);
    s.requestInprocess();
    ASSERT_EQ(s.solve(), lbool::True) << "cycle " << cycle;
    for (const Clause& c : original) EXPECT_TRUE(modelSat(s, c));
  }
  EXPECT_GE(s.stats().retired_scopes, 2);
}

TEST(Reconstruction, ScopeAndRemovalFuzzAgainstBruteForce) {
  // Random interleavings of elimination passes with scope
  // create / retire / enforce toggles, incremental global clauses
  // (which restore eliminated variables) and warm solves under random
  // assumptions. Every verdict is brute-force checked and every model
  // is verified against all clauses ever added and all enforced
  // bounds.
  constexpr int kVars = 8;
  std::mt19937_64 rng(260807);
  std::int64_t passes = 0;

  for (int round = 0; round < 6; ++round) {
    const CnfFormula base =
        randomKSat({.numVars = kVars,
                    .numClauses = 14,
                    .clauseLen = 3,
                    .seed = 7000 + static_cast<std::uint64_t>(round)});
    Solver::Options o;
    o.inprocess = true;
    o.inprocess_interval = 1;  // a pass at every solve boundary
    Solver s(o);
    SolverSink sink(s);
    addVars(s, kVars);
    std::vector<Clause> added(base.clauses().begin(), base.clauses().end());
    bool ok = true;
    for (const Clause& c : added) ok = ok && s.addClause(c);

    struct LiveScope {
      ScopeHandle act;
      std::vector<Lit> lits;
      int k = 0;
      bool enforced = true;
    };
    std::vector<LiveScope> scopes;

    const auto truthSat = [&](const std::vector<Lit>& assumps) {
      for (std::uint32_t mask = 0; mask < (1u << kVars); ++mask) {
        Assignment a(kVars);
        for (int v = 0; v < kVars; ++v) {
          a[static_cast<std::size_t>(v)] =
              ((mask >> v) & 1u) != 0 ? lbool::True : lbool::False;
        }
        const auto holds = [&a](Lit p) {
          return applySign(a[static_cast<std::size_t>(p.var())], p) ==
                 lbool::True;
        };
        bool good = true;
        for (const Lit p : assumps) good = good && holds(p);
        for (const Clause& c : added) {
          if (!good) break;
          bool sat = false;
          for (const Lit p : c) sat = sat || holds(p);
          good = sat;
        }
        for (const LiveScope& sc : scopes) {
          if (!good || !sc.enforced) continue;
          int pop = 0;
          for (const Lit p : sc.lits) {
            if (holds(p)) ++pop;
          }
          if (pop > sc.k) good = false;
        }
        if (good) return true;
      }
      return false;
    };

    for (int step = 0; step < 20 && ok && s.okay(); ++step) {
      const int action = static_cast<int>(rng() % 5);
      if (action == 0 || scopes.empty()) {
        LiveScope sc;
        const int width = 2 + static_cast<int>(rng() % 4);
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
        s.requestInprocess();
        scopes.erase(scopes.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (action == 2) {
        const std::size_t i = rng() % scopes.size();
        scopes[i].enforced = !scopes[i].enforced;
        sink.setScopeEnforced(scopes[i].act, scopes[i].enforced);
      } else if (action == 3) {
        // A fresh global clause: routinely names variables a previous
        // pass eliminated, exercising restoration.
        Clause c;
        for (int i = 0; i < 3; ++i) {
          c.push_back(Lit(static_cast<Var>(rng() % kVars), (rng() & 1) != 0));
        }
        added.push_back(c);
        ok = s.addClause(c);
        if (!ok) break;
      } else {
        ok = s.inprocessNow();
        if (!ok) break;
      }

      std::vector<Lit> assumps;
      if ((rng() & 1) != 0) {
        assumps.push_back(
            Lit(static_cast<Var>(rng() % kVars), (rng() & 1) != 0));
      }
      const lbool st = s.solve(assumps);
      ASSERT_NE(st, lbool::Undef);
      EXPECT_EQ(st == lbool::True, truthSat(assumps))
          << "round " << round << " step " << step;
      if (st == lbool::True) {
        for (std::size_t i = 0; i < added.size(); ++i) {
          EXPECT_TRUE(modelSat(s, added[i]))
              << "round " << round << " step " << step << " clause " << i;
        }
        for (const LiveScope& sc : scopes) {
          if (!sc.enforced) continue;
          int pop = 0;
          for (const Lit p : sc.lits) {
            if (s.modelValue(p) == lbool::True) ++pop;
          }
          EXPECT_LE(pop, sc.k) << "round " << round << " step " << step;
        }
      } else if (assumps.empty() && s.core().empty()) {
        break;  // globals refuted outright; nothing further to vary
      }
    }
    passes += s.stats().inproc_passes;
  }
  EXPECT_GT(passes, 0);
}

TEST(Reconstruction, EnginesReturnTotalCorrectModelsUnderInprocessing) {
  // With a pass forced at every oracle call, variable elimination
  // runs constantly mid-search; every engine must still report
  // the true optimum with a model whose recomputed cost matches —
  // which fails if any soft clause's variables come back undefined.
  const std::vector<std::string> engines{"msu3", "msu4-v2", "oll", "linear"};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = seed * 131});
    const WcnfFormula w = WcnfFormula::allSoft(f);
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    for (const std::string& name : engines) {
      MaxSatOptions o;
      o.sat.inprocess = true;
      o.sat.inprocess_interval = 1;
      std::unique_ptr<MaxSatSolver> solver = makeSolver(name, o);
      ASSERT_NE(solver, nullptr) << name;
      const MaxSatResult r = solver->solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << name << " seed " << seed;
      EXPECT_EQ(r.cost, *truth.optimumCost) << name << " seed " << seed;
      EXPECT_EQ(w.cost(r.model), r.cost) << name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace msu
