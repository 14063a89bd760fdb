/// Tests for the core-module infrastructure: SoftTracker selector
/// bookkeeping, IncrementalAtMost / AssumableAtMost reuse helpers, and
/// the Proposition 1 & 2 bound utilities (disjoint cores / blocking
/// upper bound).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <set>

#include "cnf/oracle.h"
#include "core/bounds.h"
#include "core/incremental_atmost.h"
#include "core/soft_tracker.h"
#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "encodings/totalizer.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"

namespace msu {
namespace {

TEST(SoftTracker, SelectorsEnforceAndRelax) {
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_EQ(t.numSoft(), 3);
  EXPECT_EQ(t.numOriginalVars(), 2);

  // All enforced: clauses 0 and 1 conflict.
  ASSERT_EQ(s.solve(t.assumptions()), lbool::False);
  const std::vector<int> core = t.coreSoftIndices(s.core());
  ASSERT_FALSE(core.empty());
  for (int i : core) EXPECT_LT(i, 2);  // clause 2 is irrelevant

  // Relax the core: now satisfiable.
  for (int i : core) t.relax(i);
  EXPECT_EQ(t.numRelaxed(), static_cast<int>(core.size()));
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  EXPECT_EQ(t.blockingLits().size(), core.size());
}

TEST(SoftTracker, RelaxedFalsifiedCostMatchesModel) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(0);
  t.relax(1);
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  // Exactly one of the two unit clauses is falsified by any assignment.
  EXPECT_EQ(t.relaxedFalsifiedCost(w, s.model()), 1);
  EXPECT_GE(t.blockingAssignedTrue(s.model()), 1);
}

TEST(SoftTracker, SoftOfVarMapsOnlySelectors) {
  WcnfFormula w(3);
  w.addSoft({posLit(0), posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_FALSE(t.softOfVar(0).has_value());
  EXPECT_FALSE(t.softOfVar(2).has_value());
  EXPECT_EQ(t.softOfVar(t.selector(0).var()), 0);
  EXPECT_EQ(t.softOfVar(t.selector(1).var()), 1);
  EXPECT_FALSE(t.softOfVar(999).has_value());
}

/// True for the encodings whose one structure grows in place.
bool growsInPlace(CardEncoding enc) {
  return enc == CardEncoding::Sorter || enc == CardEncoding::Totalizer;
}

TEST(IncrementalAtMost, GrowingSetWithTighteningBounds) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Totalizer}) {
    for (bool reuse : {true, false}) {
      Solver s;
      SolverSink sink(s);
      std::vector<Lit> lits;
      for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
      IncrementalAtMost inc(enc, reuse);

      std::vector<Lit> firstFour(lits.begin(), lits.begin() + 4);
      inc.assertAtMost(sink, firstFour, 2);
      inc.assertAtMost(sink, lits, 3);  // grown set
      inc.assertAtMost(sink, lits, 2);  // tightened

      // Now: at most 2 of first four, at most 2 of all six.
      auto popOk = [&](std::uint32_t mask) {
        const int firstPop = std::popcount(mask & 0xFu);
        const int allPop = std::popcount(mask);
        return firstPop <= 2 && allPop <= 2;
      };
      for (std::uint32_t mask = 0; mask < 64; ++mask) {
        std::vector<Lit> assumps;
        for (int i = 0; i < 6; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True, popOk(mask))
            << toString(enc) << " reuse=" << reuse << " mask=" << mask;
      }
      if (reuse && growsInPlace(enc)) {
        EXPECT_EQ(s.stats().retired_scopes, 0) << toString(enc);
      }
    }
  }
}

/// Numbers variables and counts clauses without storing anything.
class CountingSink final : public ClauseSink {
 public:
  Var newVar() override { return num_vars_++; }
  [[nodiscard]] Var numVars() const { return num_vars_; }
  [[nodiscard]] std::int64_t clauses() const { return clauses_; }

 protected:
  void emitClause(std::span<const Lit> /*lits*/) override { ++clauses_; }

 private:
  Var num_vars_ = 0;
  std::int64_t clauses_ = 0;
};

/// What clausesOf builds.
enum class Build { Sorter, OddEven, Direct, Join };

/// Clauses that `build` emits over fresh vectors `a` and `b` of sizes
/// `p` and `q` (the sorter and the merges cut at `k`), once the sink's
/// constant exists. The sorter sorts `b`.
std::int64_t clausesOf(Build build, int p, int q, int k = 0) {
  CountingSink sink;
  static_cast<void>(sink.trueLit());
  std::vector<Lit> a;
  std::vector<Lit> b;
  for (int i = 0; i < p; ++i) a.push_back(posLit(sink.newVar()));
  for (int i = 0; i < q; ++i) b.push_back(posLit(sink.newVar()));
  const std::int64_t before = sink.clauses();
  switch (build) {
    case Build::Sorter:
      static_cast<void>(buildSortingNetwork(sink, b, k));
      break;
    case Build::OddEven:
      static_cast<void>(mergeSorted(sink, a, b));
      break;
    case Build::Direct:
      static_cast<void>(directMerge(sink, a, b, k, /*upwardOutputs=*/true));
      break;
    case Build::Join:
      static_cast<void>(joinSorted(sink, a, b, k));
      break;
  }
  return sink.clauses() - before;
}

/// Checks the assignment `bits` of `lits` against the bounds asserted
/// so far, each `(n, k)` for `sum(lits[0..n)) <= k`: it must be
/// satisfiable iff within all of them, and assuming only the true
/// literals of a violating one must fail by unit propagation alone.
void expectWithinBoundsIffSat(Solver& s, const std::vector<Lit>& lits,
                              const std::vector<bool>& bits,
                              const std::vector<std::pair<int, int>>& bounds) {
  bool within = true;
  for (const auto& [n, k] : bounds) {
    within = within && std::count(bits.begin(), bits.begin() + n, true) <= k;
  }
  std::vector<Lit> full;
  std::vector<Lit> trueOnly;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    full.push_back(bits[i] ? lits[i] : ~lits[i]);
    if (bits[i]) trueOnly.push_back(lits[i]);
  }
  ASSERT_EQ(s.solve(full) == lbool::True, within);
  if (within) return;
  const std::int64_t decisions = s.stats().decisions;
  ASSERT_EQ(s.solve(trueOnly), lbool::False);
  EXPECT_EQ(s.stats().decisions, decisions);
}

TEST(IncrementalAtMost, RandomGrowthSchedulesAreExactAndPropagate) {
  // msu4's pattern on up to 10 literals: at least four batches, each
  // asserted under a bound that never loosens, sometimes tightened
  // again without growth. Every full assignment is checked after every
  // step.
  for (CardEncoding enc : {CardEncoding::Sorter, CardEncoding::Totalizer}) {
    SCOPED_TRACE(toString(enc));
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      std::mt19937_64 rng(seed);
      Solver s;
      SolverSink sink(s);
      IncrementalAtMost inc(enc, /*reuse=*/true);
      std::vector<Lit> lits;
      std::vector<std::pair<int, int>> bounds;
      int k = static_cast<int>(rng() % 11);
      auto assertAndCheck = [&] {
        inc.assertAtMost(sink, lits, k);
        bounds.emplace_back(static_cast<int>(lits.size()), k);
        const std::size_t n = lits.size();
        for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
          SCOPED_TRACE(testing::Message() << "mask " << mask);
          std::vector<bool> bits(n);
          for (std::size_t i = 0; i < n; ++i) bits[i] = (mask >> i) & 1u;
          expectWithinBoundsIffSat(s, lits, bits, bounds);
        }
      };
      const int batches = 4 + static_cast<int>(rng() % 3);
      for (int b = 0; b < batches; ++b) {
        // Leave room for one literal in each batch still to come.
        const int room = 10 - static_cast<int>(lits.size()) - batches + b + 1;
        const int size = 1 + static_cast<int>(rng() % std::min(3, room));
        for (int i = 0; i < size; ++i) lits.push_back(posLit(s.newVar()));
        if (rng() % 2 == 0) k = std::max(0, k - static_cast<int>(rng() % 3));
        assertAndCheck();
        if (k > 0 && rng() % 4 == 0) {
          --k;  // tighten over the same set
          assertAndCheck();
        }
      }
    }
  }
}

TEST(IncrementalAtMost, FallbackJoinOfCutOutputsStaysExact) {
  // Joins take the odd-even merge only on larger sizes than the
  // exhaustive schedules reach. Here the second step cuts 48 covered
  // literals to 36 outputs, the third joins 30 more to those by the
  // odd-even merge, and the fourth is direct again. Assignments are
  // sampled with popcounts around the bound.
  ASSERT_LT(clausesOf(Build::Direct, 40, 8, 35),
            clausesOf(Build::OddEven, 40, 8));
  ASSERT_GT(clausesOf(Build::Direct, 36, 30, 35),
            clausesOf(Build::OddEven, 36, 30));
  ASSERT_LT(clausesOf(Build::Direct, 66, 10, 30),
            clausesOf(Build::OddEven, 66, 10));
  struct Step {
    int batch;
    int k;
  };
  const Step steps[] = {{40, 35}, {8, 35}, {30, 35}, {10, 30}};
  Solver s;
  SolverSink sink(s);
  IncrementalAtMost inc(CardEncoding::Sorter, /*reuse=*/true);
  std::vector<Lit> lits;
  std::vector<std::pair<int, int>> bounds;
  std::mt19937_64 rng(7);
  for (const Step& step : steps) {
    for (int i = 0; i < step.batch; ++i) lits.push_back(posLit(s.newVar()));
    inc.assertAtMost(sink, lits, step.k);
    bounds.emplace_back(static_cast<int>(lits.size()), step.k);
    for (int sample = 0; sample < 200; ++sample) {
      SCOPED_TRACE(testing::Message() << "sample " << sample);
      // step.k - 2 .. step.k + 3 true literals at random positions.
      std::vector<bool> bits(lits.size());
      const int ones = step.k - 2 + static_cast<int>(rng() % 6);
      std::fill(bits.begin(), bits.begin() + ones, true);
      std::shuffle(bits.begin(), bits.end(), rng);
      expectWithinBoundsIffSat(s, lits, bits, bounds);
    }
  }
}

TEST(IncrementalAtMost, LooserBoundIsANoOp) {
  // The second growth step cuts the sorter at k = 1, leaving two
  // outputs; the looser bound that follows must not read past them.
  for (CardEncoding enc : {CardEncoding::Sorter, CardEncoding::Totalizer}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
    IncrementalAtMost inc(enc, /*reuse=*/true);
    inc.assertAtMost(sink, {lits.begin(), lits.begin() + 3}, 1);
    inc.assertAtMost(sink, {lits.begin(), lits.begin() + 5}, 1);
    inc.assertAtMost(sink, lits, 4);  // looser: no-op
    for (std::uint32_t mask = 0; mask < 64; ++mask) {
      std::vector<Lit> assumps;
      for (int i = 0; i < 6; ++i) {
        assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
      }
      EXPECT_EQ(s.solve(assumps) == lbool::True,
                std::popcount(mask & 0x1Fu) <= 1)
          << toString(enc) << " mask=" << mask;
    }
  }
}

/// Outputs of buildSortingNetwork over `n` fresh literals for bounds
/// of `k` or less.
int sortedSize(int n, int k) {
  CountingSink sink;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) lits.push_back(posLit(sink.newVar()));
  return static_cast<int>(buildSortingNetwork(sink, lits, k).size());
}

TEST(IncrementalAtMost, GrowthStepTakesTheSmallerMerge) {
  // One sorter growth step on each side of the size rule: a tight
  // bound keeps the direct merge small, while a bound as large as the
  // outputs makes it quadratic and the odd-even merge takes over. Both
  // the covered literals and the batch are sorted for the bound, so a
  // tight one leaves only k + 1 outputs on each side of the join.
  struct Side {
    int covered;
    int batch;
    int k;
    int outputs;  // of each side's sorter
    bool direct;
  };
  const Side sides[] = {{8, 8, 2, 3, true}, {32, 32, 31, 32, false}};
  for (const Side& side : sides) {
    SCOPED_TRACE(testing::Message() << "covered " << side.covered);
    ASSERT_EQ(sortedSize(side.covered, side.k), side.outputs);
    ASSERT_EQ(sortedSize(side.batch, side.k), side.outputs);
    CountingSink sink;
    std::vector<Lit> lits;
    for (int i = 0; i < side.covered + side.batch; ++i) {
      lits.push_back(posLit(sink.newVar()));
    }
    IncrementalAtMost inc(CardEncoding::Sorter, /*reuse=*/true);
    const std::vector<Lit> first(lits.begin(), lits.begin() + side.covered);
    inc.assertAtMost(sink, first, side.k);
    const std::int64_t before = sink.clauses();
    inc.assertAtMost(sink, lits, side.k);
    // The step emits the batch's sorter, the join and one bound unit.
    const std::int64_t sorter =
        clausesOf(Build::Sorter, 0, side.batch, side.k);
    const std::int64_t join = sink.clauses() - before - sorter - 1;
    const std::int64_t direct =
        clausesOf(Build::Direct, side.outputs, side.outputs, side.k);
    const std::int64_t oddEven =
        clausesOf(Build::OddEven, side.outputs, side.outputs);
    EXPECT_EQ(direct <= oddEven, side.direct);
    EXPECT_LE(join, oddEven);
    EXPECT_EQ(join, side.direct ? direct : oddEven);
  }
  // The rule on every small size: joinSorted emits the smaller merge.
  for (int p = 1; p <= 12; ++p) {
    for (int q = 1; q <= 12; ++q) {
      for (int k = 0; k < p + q; ++k) {
        EXPECT_EQ(clausesOf(Build::Join, p, q, k),
                  std::min(clausesOf(Build::Direct, p, q, k),
                           clausesOf(Build::OddEven, p, q)))
            << "p=" << p << " q=" << q << " k=" << k;
      }
    }
  }
}

TEST(SortingNetwork, SizesForTheBoundArePinned) {
  // What the builder adds for bounds of k or less, the sink's constant
  // included when a Batcher merge creates it. msu4-v2's first cores on
  // the Table 1 suite relax 53-1,284 softs under bounds of 1-17; the
  // full network over 1,238 inputs took 68,409 variables and 102,613
  // clauses. The third case has a bound high enough for Batcher merges
  // near the top.
  struct Pin {
    int n;
    int k;
    Var vars;
    std::int64_t clauses;
    std::size_t outputs;
  };
  const Pin pins[] = {
      {1238, 6, 4689, 13327, 7},
      {971, 1, 1940, 3879, 2},
      {104, 67, 1895, 3270, 104},
  };
  for (const Pin& pin : pins) {
    CountingSink sink;
    std::vector<Lit> lits;
    for (int i = 0; i < pin.n; ++i) lits.push_back(posLit(sink.newVar()));
    const std::vector<Lit> out = buildSortingNetwork(sink, lits, pin.k);
    EXPECT_EQ(sink.numVars() - pin.n, pin.vars) << "n=" << pin.n;
    EXPECT_EQ(sink.clauses(), pin.clauses) << "n=" << pin.n;
    EXPECT_EQ(out.size(), pin.outputs) << "n=" << pin.n;
  }
}

TEST(IncrementalAtMost, AssumedBoundsFollowGrowthAndLoosening) {
  // msu3's pattern: the literal set grows, the bound loosens, and only
  // the latest bound holds. A trivial bound parks the structure.
  struct Step {
    int size;
    int k;
  };
  const Step steps[] = {{2, 0}, {4, 1}, {4, 2}, {6, 3},
                        {6, 6}, {6, 3}, {6, 4}};
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Totalizer}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
    IncrementalAtMost inc(enc, /*reuse=*/true);
    for (const Step& step : steps) {
      const std::vector<Lit> set(lits.begin(), lits.begin() + step.size);
      const std::optional<Lit> bound = inc.assumeAtMost(sink, set, step.k);
      const std::uint32_t setMask = (1u << step.size) - 1;
      for (std::uint32_t mask = 0; mask < 64; ++mask) {
        std::vector<Lit> assumps;
        for (int i = 0; i < 6; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        if (bound) assumps.push_back(*bound);
        EXPECT_EQ(s.solve(assumps) == lbool::True,
                  std::popcount(mask & setMask) <= step.k)
            << toString(enc) << " size=" << step.size << " k=" << step.k
            << " mask=" << mask;
      }
    }
    if (growsInPlace(enc)) {
      EXPECT_EQ(s.stats().retired_scopes, 0) << toString(enc);
    }
  }
}

TEST(SoftTracker, BlockingLitsFollowRelaxationOrder) {
  // Regression: blocking literals must be append-only in *relaxation*
  // order — soft-index order breaks incremental totalizer extension
  // (a later-relaxed lower index used to shift the whole vector).
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(2);
  const std::vector<Lit> first = t.blockingLits();
  t.relax(0);  // lower soft index relaxed later
  const std::vector<Lit> second = t.blockingLits();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], first[0]) << "prefix changed: not append-only";
  EXPECT_EQ(second[1], t.selector(0));
}

TEST(AssumableAtMost, BoundLitsEnforceWhenAssumed) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Totalizer}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 5; ++i) lits.push_back(posLit(s.newVar()));
    AssumableAtMost am(sink, lits, enc);

    EXPECT_FALSE(am.boundLit(5).has_value());  // trivial
    for (int k : {1, 3, 2}) {  // out of order on purpose
      const std::optional<Lit> b = am.boundLit(k);
      ASSERT_TRUE(b.has_value());
      for (std::uint32_t mask = 0; mask < 32; ++mask) {
        std::vector<Lit> assumps{*b};
        for (int i = 0; i < 5; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True,
                  std::popcount(mask) <= k)
            << toString(enc) << " k=" << k << " mask=" << mask;
      }
    }
    // Without any bound assumption everything is allowed.
    std::vector<Lit> all(lits);
    EXPECT_EQ(s.solve(all), lbool::True) << toString(enc);
  }
}

TEST(Bounds, DisjointCoresOnPigeonhole) {
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(4, 3));
  const DisjointCoresResult r = disjointCores(w);
  ASSERT_TRUE(r.complete);
  ASSERT_GE(r.cores.size(), 1u);
  // Proposition 1: cost >= K. PHP optimum is 1, so exactly one disjoint
  // core can exist.
  EXPECT_EQ(r.costLowerBound(), 1);
  // Cores must be pairwise disjoint sets of clause indices.
  std::set<int> seen;
  for (const std::vector<int>& core : r.cores) {
    for (int idx : core) {
      EXPECT_TRUE(seen.insert(idx).second) << "clause in two cores";
    }
  }
}

TEST(Bounds, DisjointCoresAreUnsatSubsets) {
  const CnfFormula f = randomKSat(
      {.numVars = 8, .numClauses = 45, .clauseLen = 3, .seed = 1234});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  const DisjointCoresResult r = disjointCores(w);
  ASSERT_TRUE(r.complete);
  for (const std::vector<int>& core : r.cores) {
    EXPECT_TRUE(oracleSubsetUnsat(f, core));
  }
  // Proposition 1 sanity: lower bound below the true optimum.
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());
  EXPECT_LE(r.costLowerBound(), *truth.optimumCost);
}

TEST(Bounds, BlockingUpperBoundIsValid) {
  for (std::uint64_t seed = 10; seed <= 16; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = seed}));
    const auto ub = blockingUpperBound(w);
    ASSERT_TRUE(ub.has_value());
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    // Proposition 2: model cost is an upper bound on the optimum.
    EXPECT_GE(ub->costUpperBound, *truth.optimumCost);
    // And it is achieved by the returned model.
    EXPECT_EQ(w.cost(ub->model), ub->costUpperBound);
  }
}

TEST(Bounds, SandwichTheOptimum) {
  // LB from disjoint cores <= optimum <= UB from one blocking model.
  const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
      {.numVars = 9, .numClauses = 50, .clauseLen = 3, .seed = 777}));
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());
  const DisjointCoresResult lb = disjointCores(w);
  const auto ub = blockingUpperBound(w);
  ASSERT_TRUE(lb.complete);
  ASSERT_TRUE(ub.has_value());
  EXPECT_LE(lb.costLowerBound(), *truth.optimumCost);
  EXPECT_GE(ub->costUpperBound, *truth.optimumCost);
}

TEST(Bounds, HardUnsatGivesNoBound) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 1);
  EXPECT_FALSE(blockingUpperBound(w).has_value());
}

}  // namespace
}  // namespace msu
