/// White-box tests of the SAT substrate's internals: the clause arena
/// (allocation, views, relocation GC), the indexed activity heap, and
/// the Budget type. Plus stress tests that force reduceDB and GC through
/// the public interface.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>

#include "cnf/oracle.h"
#include "proof/checker.h"
#include "proof/drup.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "sat/arena.h"
#include "sat/watches.h"
#include "sat/budget.h"
#include "sat/heap.h"
#include "sat/solver.h"

namespace msu {
namespace {

TEST(Arena, AllocAndView) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1), posLit(2)};
  const CRef ref = arena.alloc(lits, /*learnt=*/false);
  ClauseRefView c = arena[ref];
  EXPECT_EQ(c.size(), 3);
  EXPECT_FALSE(c.learnt());
  EXPECT_FALSE(c.deleted());
  EXPECT_EQ(c[0], posLit(0));
  EXPECT_EQ(c[1], negLit(1));
  EXPECT_EQ(c[2], posLit(2));
}

TEST(Arena, LearntActivity) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1)};
  const CRef ref = arena.alloc(lits, /*learnt=*/true);
  ClauseRefView c = arena[ref];
  EXPECT_TRUE(c.learnt());
  EXPECT_FLOAT_EQ(c.activity(), 0.0f);
  c.setActivity(3.5f);
  EXPECT_FLOAT_EQ(c.activity(), 3.5f);
}

TEST(Arena, LiteralMutation) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), posLit(1), posLit(2), posLit(3)};
  const CRef ref = arena.alloc(lits, false);
  ClauseRefView c = arena[ref];
  c[0] = negLit(7);
  EXPECT_EQ(c[0], negLit(7));
  EXPECT_EQ(c[1], posLit(1));
}

TEST(Arena, RelocationPreservesContent) {
  ClauseArena from;
  std::vector<CRef> refs;
  for (int i = 0; i < 50; ++i) {
    std::vector<Lit> lits;
    for (int j = 0; j <= i % 5 + 1; ++j) lits.push_back(posLit(i + j));
    refs.push_back(from.alloc(lits, i % 3 == 0));
  }
  // Mark some deleted (GC keeps them; deletion flag carries over).
  from[refs[4]].markDeleted();

  ClauseArena to;
  std::vector<CRef> moved = refs;
  for (CRef& r : moved) from.reloc(r, to);
  // Re-relocating through the forwarding pointer gives the same target.
  std::vector<CRef> again = refs;
  for (CRef& r : again) from.reloc(r, to);
  EXPECT_EQ(moved, again);

  for (std::size_t i = 0; i < refs.size(); ++i) {
    ClauseRefView c = to[moved[i]];
    EXPECT_EQ(c.size(), static_cast<int>(i % 5 + 2));
    EXPECT_EQ(c[0], posLit(static_cast<Var>(i)));
    EXPECT_EQ(c.learnt(), i % 3 == 0);
  }
  EXPECT_TRUE(to[moved[4]].deleted());
}

TEST(Arena, WastedAccounting) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), posLit(1)};
  const CRef a = arena.alloc(lits, false);
  EXPECT_EQ(arena.wasted(), 0u);
  arena[a].markDeleted();
  arena.markWasted(2, false);
  EXPECT_EQ(arena.wasted(), 3u);  // header + 2 lits

  const std::vector<Lit> learnt{posLit(0), negLit(1), posLit(2)};
  const CRef b = arena.alloc(learnt, /*learnt=*/true);
  EXPECT_EQ(arena[b].headerWords(), 2);
  EXPECT_EQ(arena.size(), 3u + 5u);
  arena[b].markDeleted();
  arena.markWasted(3, true);
  EXPECT_EQ(arena.wasted(), 3u + 5u);  // + header + activity + 3 lits
}

TEST(Heap, MaxActivityComesFirst) {
  std::vector<double> act{1.0, 5.0, 3.0, 4.0, 2.0};
  VarOrderHeap heap(act);
  for (Var v = 0; v < 5; ++v) heap.insert(v);
  EXPECT_EQ(heap.removeMax(), 1);
  EXPECT_EQ(heap.removeMax(), 3);
  EXPECT_EQ(heap.removeMax(), 2);
  EXPECT_EQ(heap.removeMax(), 4);
  EXPECT_EQ(heap.removeMax(), 0);
  EXPECT_TRUE(heap.empty());
}

TEST(Heap, UpdateAfterActivityBump) {
  std::vector<double> act{1.0, 2.0, 3.0};
  VarOrderHeap heap(act);
  for (Var v = 0; v < 3; ++v) heap.insert(v);
  act[0] = 10.0;
  heap.update(0);
  EXPECT_EQ(heap.removeMax(), 0);
}

TEST(Heap, ContainsAndReinsert) {
  std::vector<double> act{1.0, 2.0};
  VarOrderHeap heap(act);
  heap.insert(0);
  EXPECT_TRUE(heap.contains(0));
  EXPECT_FALSE(heap.contains(1));
  EXPECT_EQ(heap.removeMax(), 0);
  EXPECT_FALSE(heap.contains(0));
  heap.insert(0);
  heap.insert(1);
  EXPECT_EQ(heap.removeMax(), 1);
}

TEST(Heap, BuildFromList) {
  std::vector<double> act{5.0, 1.0, 9.0, 2.0};
  VarOrderHeap heap(act);
  heap.insert(0);
  heap.build({1, 2, 3});  // replaces content
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(heap.removeMax(), 2);
  EXPECT_EQ(heap.removeMax(), 3);
  EXPECT_EQ(heap.removeMax(), 1);
}

TEST(Heap, RandomizedAgainstSort) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    const int n = 1 + static_cast<int>(rng() % 40);
    std::vector<double> act(static_cast<std::size_t>(n));
    for (double& a : act) {
      a = static_cast<double>(rng() % 1000);
    }
    VarOrderHeap heap(act);
    for (Var v = 0; v < n; ++v) heap.insert(v);
    std::vector<Var> order;
    while (!heap.empty()) order.push_back(heap.removeMax());
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(act[order[i - 1]], act[order[i]]) << "round " << round;
    }
  }
}

TEST(Budget, UnlimitedByDefault) {
  const Budget b;
  EXPECT_TRUE(b.isUnlimited());
  EXPECT_FALSE(b.timeExpired());
  EXPECT_FALSE(b.conflictsExhausted(1'000'000'000));
  EXPECT_FALSE(b.nodesExhausted(1'000'000'000));
}

TEST(Budget, ConflictLimit) {
  const Budget b = Budget::conflicts(100);
  EXPECT_FALSE(b.conflictsExhausted(99));
  EXPECT_TRUE(b.conflictsExhausted(100));
  EXPECT_FALSE(b.isUnlimited());
}

TEST(Budget, WallClockExpires) {
  Budget b = Budget::wallClock(0.0);
  EXPECT_TRUE(b.timeExpired());
  Budget c = Budget::wallClock(60.0);
  EXPECT_FALSE(c.timeExpired());
}

TEST(Budget, DeadlinePastTheClockIsNoDeadline) {
  // From about 9.2e9 s on, the deadline overflows the clock's integer
  // ticks: it means no deadline, not one that has already passed.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double s : {1e10, 1e300, kInf}) {
    const Budget b = Budget::wallClock(s);
    EXPECT_FALSE(b.timeExpired()) << s;
    EXPECT_FALSE(b.remaining().has_value()) << s;
  }
  EXPECT_FALSE(Budget::wallClock(9e9).timeExpired());
  EXPECT_TRUE(Budget::wallClock(9e9).remaining().has_value());
  EXPECT_TRUE(Budget::wallClock(-1.0).timeExpired());
}

TEST(Budget, NodeLimit) {
  Budget b;
  b.setMaxNodes(10);
  EXPECT_FALSE(b.nodesExhausted(9));
  EXPECT_TRUE(b.nodesExhausted(10));
}

TEST(Budget, InterruptStopsTheSolver) {
  std::atomic<bool> stop{false};
  Budget b;
  b.setInterrupt(&stop);
  EXPECT_FALSE(b.isUnlimited());
  EXPECT_FALSE(b.timeExpired());
  stop.store(true);
  EXPECT_TRUE(b.interrupted());
  EXPECT_TRUE(b.timeExpired());

  // A pre-raised flag makes solve return Undef immediately.
  const CnfFormula php = pigeonhole(7, 6);
  Solver s;
  while (s.numVars() < php.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : php.clauses()) ASSERT_TRUE(s.addClause(c));
  s.setBudget(b);
  EXPECT_EQ(s.solve(), lbool::Undef);
}

// ---- stress through the public interface ---------------------------------

TEST(SolverStress, ManySolvesExerciseReduceDbAndGc) {
  // A long incremental session: repeatedly add constraints and solve, so
  // learnt clauses accumulate, reduceDB fires, and the arena GC runs.
  Solver s;
  const CnfFormula base = randomKSat(
      {.numVars = 60, .numClauses = 240, .clauseLen = 3, .seed = 99});
  while (s.numVars() < base.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : base.clauses()) ASSERT_TRUE(s.addClause(c));

  std::mt19937_64 rng(123);
  int satCount = 0;
  for (int round = 0; round < 60 && s.okay(); ++round) {
    // Random assumption pair each round.
    std::vector<Lit> assumps;
    for (int i = 0; i < 3; ++i) {
      assumps.push_back(Lit(static_cast<Var>(rng() % 60), (rng() & 1) != 0));
    }
    const lbool st = s.solve(assumps);
    ASSERT_NE(st, lbool::Undef);
    if (st == lbool::True) ++satCount;
    // Periodically grow the formula.
    if (round % 7 == 3) {
      const Var a = static_cast<Var>(rng() % 60);
      const Var b = static_cast<Var>(rng() % 60);
      if (a != b) {
        static_cast<void>(
            s.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0)}));
      }
    }
  }
  EXPECT_GT(satCount, 0);
  EXPECT_GT(s.stats().solves, 50);
}

TEST(SolverStress, DeepIncrementalMatchesOracle) {
  // Add clauses one at a time, solving after each addition; the verdict
  // must track the oracle at every step (catches stale-state bugs in
  // incremental paths).
  const CnfFormula f = randomKSat(
      {.numVars = 9, .numClauses = 50, .clauseLen = 3, .seed = 321});
  Solver s;
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  CnfFormula sofar(f.numVars());
  for (int i = 0; i < f.numClauses(); ++i) {
    static_cast<void>(s.addClause(f.clause(i)));
    sofar.addClause(f.clause(i));
    const lbool st = s.solve();
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, oracleSat(sofar).has_value())
        << "after clause " << i;
    if (st == lbool::False) break;
  }
}

TEST(LbdTest, LbdReduceStaysCorrectOnRandomInstances) {
  // Frequent learnt-clause deletion must not change verdicts.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 20, .numClauses = 88, .clauseLen = 3, .seed = seed * 5});
    Solver::Options opts;
    opts.learntsize_factor = 0.05;  // force frequent reductions
    Solver s(opts);
    while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
    bool ok = true;
    for (const Clause& c : f.clauses()) ok = ok && s.addClause(c);
    const lbool st = ok ? s.solve() : lbool::False;
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, oracleSat(f).has_value()) << "seed " << seed;
    if (st == lbool::True) {
      Assignment model(static_cast<std::size_t>(f.numVars()));
      for (Var v = 0; v < f.numVars(); ++v) {
        model[static_cast<std::size_t>(v)] =
            s.model()[static_cast<std::size_t>(v)];
      }
      EXPECT_TRUE(f.satisfies(model)) << "seed " << seed;
    }
  }
}

TEST(LbdTest, LbdReduceKeepsProofsValid) {
  // Frequent learnt-clause deletions must still leave an RUP-checkable
  // trace.
  const CnfFormula f = randomUnsat3Sat(24, 6.0, 9);
  InMemoryProof proof;
  Solver::Options opts;
  opts.learntsize_factor = 0.02;
  opts.tracer = &proof;
  Solver s(opts);
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) break;
  }
  ASSERT_EQ(s.okay() ? s.solve() : lbool::False, lbool::False);
  const ProofCheckResult r = checkProof(proof.lines());
  EXPECT_TRUE(r.ok) << "bad line " << r.firstBadLine;
  EXPECT_TRUE(r.refutationVerified);
}

TEST(Arena, LearntMetaSurvivesRelocation) {
  // A learnt clause's only metadata is its activity word; GC relocation
  // must carry it.
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1), posLit(2)};
  CRef ref = arena.alloc(lits, /*learnt=*/true);
  arena[ref].setActivity(3.5f);

  ClauseArena to;
  arena.reloc(ref, to);
  EXPECT_FLOAT_EQ(to[ref].activity(), 3.5f);
  EXPECT_EQ(to[ref][2], posLit(2));
}

TEST(FlatWatches, PushGrowRemoveCompact) {
  // Direct exercise of the flat occurrence lists: interleaved growth
  // relocates segments within the pool; compact() defragments without
  // losing entries.
  FlatOccLists<Watcher> lists;
  constexpr int kLits = 10;
  for (int i = 0; i < kLits; ++i) lists.addLiteral();
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (int i = 0; i < kLits; ++i) {
      lists.push(Lit::fromIndex(i), Watcher{round * kLits + i, kUndefLit});
    }
  }
  for (int i = 0; i < kLits; ++i) {
    ASSERT_EQ(lists.sizeOf(Lit::fromIndex(i)), 20u);
  }
  EXPECT_GT(lists.wasted(), 0u);

  // Swap-with-back removal of one entry per list.
  for (int i = 0; i < kLits; ++i) {
    const CRef target = 5u * kLits + static_cast<CRef>(i);
    EXPECT_TRUE(lists.removeOne(Lit::fromIndex(i), [&](const Watcher& w) {
      return w.cref == target;
    }));
  }

  lists.compact();
  EXPECT_EQ(lists.wasted(), 0u);
  for (int i = 0; i < kLits; ++i) {
    const auto ws = lists.list(Lit::fromIndex(i));
    ASSERT_EQ(ws.size(), 19u);
    for (const Watcher& w : ws) {
      EXPECT_EQ(static_cast<int>(w.cref) % kLits, i);
      EXPECT_NE(w.cref / static_cast<CRef>(kLits), 5u);
    }
  }
}

TEST(BinaryFastPath, GcWithBinaryAndLongClausesKeepsWatchesIntact) {
  // Force reduceDB + arena GC while binary and long clauses coexist;
  // every verdict must keep matching the oracle (a stale or dropped
  // watcher would show up as a wrong SAT/UNSAT answer).
  const int n = 16;
  std::mt19937_64 rng(2024);
  CnfFormula base(n);
  for (int i = 0; i < 26; ++i) {  // binary layer
    const Var a = static_cast<Var>(rng() % n);
    const Var b = static_cast<Var>(rng() % n);
    if (a == b) continue;
    base.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0)});
  }
  for (int i = 0; i < 40; ++i) {  // long layer
    const Var a = static_cast<Var>(rng() % n);
    const Var b = static_cast<Var>(rng() % n);
    const Var c = static_cast<Var>(rng() % n);
    if (a == b || b == c || a == c) continue;
    base.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0),
                    Lit(c, (rng() & 1) != 0)});
  }

  Solver::Options opts;
  opts.garbage_frac = 0.01;       // GC at the slightest waste
  opts.learntsize_factor = 0.02;  // reduceDB constantly
  Solver s(opts);
  while (s.numVars() < n) static_cast<void>(s.newVar());
  bool ok = true;
  for (const Clause& c : base.clauses()) ok = ok && s.addClause(c);
  ASSERT_TRUE(ok);

  for (int round = 0; round < 40 && s.okay(); ++round) {
    std::vector<Lit> assumps;
    for (int i = 0; i < 2; ++i) {
      assumps.push_back(Lit(static_cast<Var>(rng() % n), (rng() & 1) != 0));
    }
    const lbool st = s.solve(assumps);
    ASSERT_NE(st, lbool::Undef);

    CnfFormula augmented = base;
    for (Lit p : assumps) augmented.addClause({p});
    EXPECT_EQ(st == lbool::True, oracleSat(augmented).has_value())
        << "round " << round;
  }
}

TEST(BinaryFastPath, CoreThroughBinaryReasonChain) {
  // The final conflict is driven entirely through binary reasons:
  // a -> x0 -> x1 -> ... -> xk -> ~b with both a and b assumed. Core
  // extraction must walk the inline binary reasons back to {a, b}.
  constexpr int kChain = 6;
  Solver s;
  const Var a = s.newVar();
  const Var b = s.newVar();
  std::vector<Var> x;
  for (int i = 0; i < kChain; ++i) x.push_back(s.newVar());

  ASSERT_TRUE(s.addClause({negLit(a), posLit(x[0])}));
  for (int i = 0; i + 1 < kChain; ++i) {
    ASSERT_TRUE(s.addClause({negLit(x[i]), posLit(x[i + 1])}));
  }
  ASSERT_TRUE(s.addClause({negLit(x[kChain - 1]), negLit(b)}));

  const std::vector<Lit> assumps{posLit(a), posLit(b)};
  ASSERT_EQ(s.solve(assumps), lbool::False);
  std::vector<Lit> core = s.core();
  std::sort(core.begin(), core.end());
  ASSERT_EQ(core.size(), 2u);
  EXPECT_EQ(core[0], posLit(a));
  EXPECT_EQ(core[1], posLit(b));

  // The database itself stays satisfiable without the assumptions.
  EXPECT_EQ(s.solve(), lbool::True);
}

}  // namespace
}  // namespace msu
