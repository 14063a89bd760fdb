/// Tests of bounded variable elimination (Options::inprocess):
/// elimination and resolvent counters, the model-reconstruction
/// witness (every model returned after a pass satisfies every clause
/// the solver ever held), the candidate restrictions (frozen variables
/// and scope-tagged clauses are untouchable), restoration when a new
/// clause or an assumption names an eliminated variable, the
/// pure-literal special case, and a randomized incremental fuzz
/// against the exhaustive SAT oracle.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cnf/oracle.h"
#include "encodings/sink.h"
#include "gen/random_cnf.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// Inprocessing with every stage on. The targeted formulas below hold
/// one or two clauses that subsume nothing, so the counters they check
/// are BVE's alone.
Solver::Options bveOpts() {
  Solver::Options o;
  o.inprocess = true;
  return o;
}

void addVars(Solver& s, int n) {
  while (s.numVars() < n) static_cast<void>(s.newVar());
}

/// True iff the solver's current model satisfies the clause.
bool modelSat(const Solver& s, std::span<const Lit> c) {
  for (const Lit p : c) {
    if (s.modelValue(p) == lbool::True) return true;
  }
  return false;
}

/// Loads the canonical two-clause elimination instance: with every
/// variable but v2 frozen, v2 is the only candidate, and resolving its
/// single positive against its single negative occurrence yields one
/// resolvent.
void loadSingleCandidate(Solver& s, std::vector<std::vector<Lit>>& original) {
  addVars(s, 5);
  for (const Var v : {0, 1, 3, 4}) s.setFrozen(v, true);
  original = {{posLit(0), posLit(1), posLit(2)},
              {posLit(3), posLit(4), negLit(2)}};
  for (const auto& c : original) EXPECT_TRUE(s.addClause(c));
}

TEST(Elimination, EliminatesAVariableAndReconstructsTheModel) {
  Solver s(bveOpts());
  std::vector<std::vector<Lit>> original;
  loadSingleCandidate(s, original);
  ASSERT_EQ(s.numClauses(), 2);

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_bve_eliminated, 1);
  EXPECT_EQ(s.stats().inproc_bve_resolvents, 1);
  EXPECT_EQ(s.numClauses(), 1);  // both originals replaced by the resolvent

  // The model is over the *original* formula: v2 is gone from the
  // database, but the witness stack must assign it so both removed
  // clauses hold.
  ASSERT_EQ(s.solve(), lbool::True);
  for (const auto& c : original) EXPECT_TRUE(modelSat(s, c));
  EXPECT_NE(s.modelValue(posLit(2)), lbool::Undef);
}

TEST(Elimination, FrozenVariablesAreNeverEliminated) {
  Solver s(bveOpts());
  addVars(s, 5);
  for (Var v = 0; v < 5; ++v) s.setFrozen(v, true);
  ASSERT_TRUE(s.addClause({posLit(0), posLit(1), posLit(2)}));
  ASSERT_TRUE(s.addClause({posLit(3), posLit(4), negLit(2)}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_bve_eliminated, 0);
  EXPECT_EQ(s.numClauses(), 2);
}

TEST(Elimination, ScopeTaggedClausesBanTheirVariables) {
  Solver s(bveOpts());
  SolverSink sink(s);
  addVars(s, 3);

  // The only clause is scope-tagged: its variables (and the activator)
  // are off limits, so the pass must eliminate nothing — the clause
  // belongs to the scope's lifecycle, not to elimination.
  const ScopeHandle act = sink.beginScope();
  sink.addClause({posLit(0), posLit(1), posLit(2)});
  sink.endScope(act);
  const int before = s.numClauses();

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_bve_eliminated, 0);
  EXPECT_EQ(s.numClauses(), before);

  // Retirement still owns the clause.
  const std::int64_t retiredBefore = s.stats().retired_clauses;
  s.retire(act.activator());
  EXPECT_EQ(s.stats().retired_clauses, retiredBefore + 1);
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Elimination, AddClauseRestoresAnEliminatedVariable) {
  Solver s(bveOpts());
  std::vector<std::vector<Lit>> original;
  loadSingleCandidate(s, original);
  ASSERT_TRUE(s.inprocessNow());
  ASSERT_EQ(s.stats().inproc_bve_eliminated, 1);

  // A new clause naming v2 forces it back: the removed originals
  // re-enter the database and the new clause is attached unrewritten.
  ASSERT_TRUE(s.addClause({negLit(2), posLit(0)}));
  EXPECT_GE(s.stats().inproc_bve_restored, 1);
  EXPECT_GE(s.numClauses(), 3);  // resolvent + the two restored originals

  ASSERT_EQ(s.solve(), lbool::True);
  for (const auto& c : original) EXPECT_TRUE(modelSat(s, c));
  EXPECT_TRUE(modelSat(s, std::vector<Lit>{negLit(2), posLit(0)}));
}

TEST(Elimination, AssumptionRestoresAnEliminatedVariable) {
  Solver s(bveOpts());
  std::vector<std::vector<Lit>> original;
  loadSingleCandidate(s, original);
  ASSERT_TRUE(s.inprocessNow());
  ASSERT_EQ(s.stats().inproc_bve_eliminated, 1);

  // Assuming an eliminated literal must restore the variable first:
  // under ~v2 the first original clause needs v0 or v1.
  const std::vector<Lit> assumps{negLit(2)};
  ASSERT_EQ(s.solve(assumps), lbool::True);
  EXPECT_GE(s.stats().inproc_bve_restored, 1);
  EXPECT_EQ(s.modelValue(negLit(2)), lbool::True);
  for (const auto& c : original) EXPECT_TRUE(modelSat(s, c));
}

TEST(Elimination, PureLiteralEliminatesWithoutResolvents) {
  Solver s(bveOpts());
  addVars(s, 3);
  s.setFrozen(0, true);
  s.setFrozen(1, true);
  const std::vector<Lit> only{posLit(0), posLit(1), posLit(2)};
  ASSERT_TRUE(s.addClause(only));

  // v2 occurs in one polarity only: zero resolvents, the clause is
  // carried entirely by the witness.
  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_bve_eliminated, 1);
  EXPECT_EQ(s.stats().inproc_bve_resolvents, 0);
  EXPECT_EQ(s.numClauses(), 0);

  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_TRUE(modelSat(s, only));
}

TEST(Elimination, IncrementalFuzzAgainstOracleWithModelCheck) {
  // Random instances loaded in two batches with a forced pass and a
  // solve in between: the second batch's clauses routinely name
  // variables the first pass eliminated, exercising restoration. Every
  // SAT answer's model is checked against the *full original* clause
  // list; the final verdict is checked against the exhaustive oracle.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CnfFormula f = randomKSat({.numVars = 10,
                                     .numClauses = 42,
                                     .clauseLen = 3,
                                     .seed = 9000 + seed});
    Solver::Options o = bveOpts();
    o.inprocess_interval = 1;
    Solver s(o);
    addVars(s, f.numVars());

    const auto& cls = f.clauses();
    const std::size_t half = cls.size() / 2;
    bool ok = true;
    for (std::size_t i = 0; i < half && ok; ++i) ok = s.addClause(cls[i]);
    if (ok) ok = s.inprocessNow();
    if (ok && s.solve() == lbool::True) {
      for (std::size_t i = 0; i < half; ++i) {
        EXPECT_TRUE(modelSat(s, cls[i])) << "seed " << seed << " clause " << i;
      }
    }
    for (std::size_t i = half; i < cls.size() && ok; ++i) {
      ok = s.addClause(cls[i]);
    }

    const bool truth = oracleSat(f).has_value();
    const lbool st = ok ? s.solve() : lbool::False;
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, truth) << "seed " << seed;
    if (st == lbool::True) {
      for (std::size_t i = 0; i < cls.size(); ++i) {
        EXPECT_TRUE(modelSat(s, cls[i])) << "seed " << seed << " clause " << i;
      }
    }
  }
}

}  // namespace
}  // namespace msu
