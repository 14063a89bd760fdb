/// Tests for the solver's bulk-load path (beginBulkLoad/endBulkLoad):
/// the bit-for-bit gate against per-clause addClause, guard nesting,
/// unit handling, the load-time memory cap (structured kMemory abort
/// instead of OOM), and the formula-free fastLoadDimacsCnfInto entry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cnf/dimacs.h"
#include "cnf/fastparse.h"
#include "cnf/formula.h"
#include "gen/random_cnf.h"
#include "sat/budget.h"
#include "sat/solver.h"

namespace msu {
namespace {

void loadIncremental(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) return;
  }
}

void loadBulk(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  const Solver::BulkLoadGuard bulk(s);
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) return;
  }
}

/// Search-relevant counters that must match bit-for-bit when the two
/// load paths produce identical solver states.
std::vector<std::int64_t> searchFingerprint(const Solver& s) {
  const SolverStats& st = s.stats();
  return {st.decisions,    st.propagations,        st.conflicts,
          st.restarts,     st.learnt_clauses,      st.learnt_literals,
          st.blocker_hits, st.watch_bytes_visited, st.binary_propagations,
          st.long_propagations};
}

TEST(BulkLoad, BitForBitEquivalentToIncrementalOnFuzzCorpus) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCnfParams p;
    p.numVars = 16 + static_cast<int>(seed % 5) * 4;
    p.numClauses = 40 + static_cast<int>(seed) * 23;
    p.seed = seed;
    const CnfFormula f = randomKSat(p);

    Solver inc;
    loadIncremental(inc, f);
    Solver bulk;
    loadBulk(bulk, f);

    ASSERT_EQ(inc.okay(), bulk.okay()) << "seed " << seed;
    ASSERT_EQ(inc.numClauses(), bulk.numClauses()) << "seed " << seed;
    if (!inc.okay()) continue;

    const lbool ri = inc.solve();
    const lbool rb = bulk.solve();
    ASSERT_EQ(ri, rb) << "seed " << seed;
    // Identical watch-list contents mean the searches are the same
    // search, decision for decision.
    EXPECT_EQ(searchFingerprint(inc), searchFingerprint(bulk))
        << "seed " << seed;
    if (ri == lbool::True) EXPECT_EQ(inc.model(), bulk.model());
  }
}

TEST(BulkLoad, UnitsPropagateOnceAtEndOfLoad) {
  Solver s;
  for (int i = 0; i < 4; ++i) static_cast<void>(s.newVar());
  {
    const Solver::BulkLoadGuard bulk(s);
    // Binary first so it lands in the deferred-attach buffer; the unit
    // that triggers it arrives after. (Order matters: a binary added
    // AFTER the unit is strengthened to a unit by the root-level
    // simplification and enqueues immediately — same as incremental.)
    ASSERT_TRUE(s.addClause({negLit(0), posLit(1)}));
    ASSERT_TRUE(s.addClause({posLit(0)}));
    // Units enqueue immediately, but the implication 0 -> 1 is deferred.
    EXPECT_EQ(s.value(Var{0}), lbool::True);
    EXPECT_EQ(s.value(Var{1}), lbool::Undef);
  }
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.value(Var{1}), lbool::True);  // endBulkLoad ran propagate()
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(BulkLoad, RootConflictSurfacesAtEndOfLoad) {
  Solver s;
  for (int i = 0; i < 2; ++i) static_cast<void>(s.newVar());
  bool addOk = true;
  {
    const Solver::BulkLoadGuard bulk(s);
    // The contradiction needs propagation to surface (0 -> 1, 0 -> ¬1),
    // and propagation is exactly what bulk mode defers.
    addOk = addOk && s.addClause({negLit(0), posLit(1)});
    addOk = addOk && s.addClause({negLit(0), negLit(1)});
    addOk = addOk && s.addClause({posLit(0)});
    EXPECT_TRUE(addOk);  // not detected until the load finishes
  }
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(BulkLoad, GuardNests) {
  Solver s;
  static_cast<void>(s.newVar());
  static_cast<void>(s.newVar());
  {
    const Solver::BulkLoadGuard outer(s);
    {
      const Solver::BulkLoadGuard inner(s);  // nested: same scope
      ASSERT_TRUE(s.addClause({negLit(0), posLit(1)}));
      ASSERT_TRUE(s.addClause({posLit(0)}));
    }
    // Inner exit must not flush: still one bulk scope open.
    EXPECT_EQ(s.value(Var{1}), lbool::Undef);
  }
  EXPECT_EQ(s.value(Var{1}), lbool::True);
}

TEST(BulkLoad, MemoryCapAbortsLoadWithStructuredReason) {
  Solver s;
  std::atomic<int> abort_sink{static_cast<int>(AbortReason::kNone)};
  Budget b;
  b.setMaxMemory(1);  // everything exceeds this
  b.setAbortSink(&abort_sink);
  s.setBudget(b);

  RandomCnfParams p;
  p.numVars = 60;
  p.numClauses = 3000;  // enough adds to pass the periodic cap check
  const CnfFormula f = randomKSat(p);
  {
    const Solver::BulkLoadGuard bulk(s);
    while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
    for (const Clause& c : f.clauses()) static_cast<void>(s.addClause(c));
  }
  // Poisoned load: NOT "unsat" (okay() stays true); the next solve
  // aborts immediately with the structured memory reason.
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), lbool::Undef);
  EXPECT_EQ(static_cast<AbortReason>(abort_sink.load()), AbortReason::kMemory);
}

TEST(BulkLoad, FastLoadReportsMemStats) {
  RandomCnfParams p;
  p.numVars = 40;
  p.numClauses = 400;
  const CnfFormula f = randomKSat(p);
  const std::string text = toDimacsString(f);
  Solver s;
  static_cast<void>(fastLoadDimacsCnfInto(
      InputBuffer::borrow(text.data(), text.size()), s));
  EXPECT_EQ(s.numClauses(), f.numClauses());
  // endBulkLoad refreshed the memory gauges.
  EXPECT_GT(s.stats().mem_bytes, 0);
  EXPECT_GT(s.stats().mem_arena_bytes, 0);
  EXPECT_GT(s.stats().mem_watch_bytes, 0);
  EXPECT_GE(s.stats().mem_bytes,
            s.stats().mem_arena_bytes + s.stats().mem_watch_bytes);
}

}  // namespace
}  // namespace msu
