/// Property tests for the cardinality encodings: for every encoding and
/// every small (n, k), the encoding must accept exactly the assignments
/// with popcount <= k (checked by forcing each input pattern with unit
/// clauses and solving). Also covers the AMO forms, activators, and the
/// sorting network / BDD building blocks.

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "encodings/totalizer.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// Builds a solver with `n` input variables.
struct Fixture {
  Solver solver;
  SolverSink sink{solver};
  std::vector<Lit> inputs;

  explicit Fixture(int n) {
    for (int i = 0; i < n; ++i) inputs.push_back(posLit(solver.newVar()));
  }

  /// Solves with the inputs forced to the bits of `mask` (plus `extra`).
  [[nodiscard]] lbool solveMask(std::uint32_t mask,
                                std::optional<Lit> extra = std::nullopt) {
    std::vector<Lit> assumps;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool bit = ((mask >> i) & 1u) != 0;
      assumps.push_back(bit ? inputs[i] : ~inputs[i]);
    }
    if (extra) assumps.push_back(*extra);
    return solver.solve(assumps);
  }
};

/// Checks exhaustively what callers use of the sorted outputs `out`
/// over all of `f.inputs`, for bounds of `k` or less: with the inputs
/// fixed, assuming `~out[i]` for i <= k is satisfiable iff popcount
/// <= i, and when popcount >= i+1 the true inputs alone refute it by
/// unit propagation, without a decision.
void expectOutputsBoundPopcount(Fixture& f, const std::vector<Lit>& out,
                                int k) {
  const int n = static_cast<int>(f.inputs.size());
  ASSERT_GT(out.size(), static_cast<std::size_t>(k));
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int pop = std::popcount(mask);
    for (int i = 0; i <= k; ++i) {
      const Lit o = out[static_cast<std::size_t>(i)];
      if (pop <= i) {
        EXPECT_EQ(f.solveMask(mask, ~o), lbool::True)
            << "mask=" << mask << " ~out[" << i << "]";
        continue;
      }
      std::vector<Lit> trueOnly;
      for (int j = 0; j < n; ++j) {
        if (((mask >> j) & 1u) != 0) trueOnly.push_back(f.inputs[j]);
      }
      trueOnly.push_back(~o);
      const std::int64_t decisions = f.solver.stats().decisions;
      EXPECT_EQ(f.solver.solve(trueOnly), lbool::False)
          << "mask=" << mask << " ~out[" << i << "]";
      EXPECT_EQ(f.solver.stats().decisions, decisions)
          << "mask=" << mask << " ~out[" << i << "]";
    }
  }
}

struct AtMostCase {
  CardEncoding enc;
  int n;
  int k;
};

std::string caseName(const ::testing::TestParamInfo<AtMostCase>& info) {
  return std::string(toString(info.param.enc)) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k);
}

class AtMostExhaustive : public ::testing::TestWithParam<AtMostCase> {};

TEST_P(AtMostExhaustive, AcceptsExactlyPopcountLeK) {
  const auto [enc, n, k] = GetParam();
  Fixture f(n);
  encodeAtMost(f.sink, f.inputs, k, enc);
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const bool expect = std::popcount(mask) <= k;
    const lbool st = f.solveMask(mask);
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, expect)
        << toString(enc) << " n=" << n << " k=" << k << " mask=" << mask;
  }
}

std::vector<AtMostCase> atMostCases() {
  std::vector<AtMostCase> cases;
  std::set<std::tuple<int, int, int>> seen;
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Totalizer}) {
    for (int n : {1, 2, 3, 5, 6, 8}) {
      for (int k : {0, 1, 2, n - 1}) {
        if (k < 0 || k >= n) continue;
        if (!seen.insert({static_cast<int>(enc), n, k}).second) continue;
        cases.push_back(AtMostCase{enc, n, k});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtMostExhaustive,
                         ::testing::ValuesIn(atMostCases()), caseName);

TEST(Encodings, TrivialBounds) {
  Fixture f(3);
  // k >= n is a no-op: all assignments accepted.
  encodeAtMost(f.sink, f.inputs, 3, CardEncoding::Sorter);
  encodeAtMost(f.sink, f.inputs, 7, CardEncoding::Bdd);
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    EXPECT_EQ(f.solveMask(mask), lbool::True);
  }
}

TEST(Encodings, NegativeBoundIsFalsum) {
  Fixture f(2);
  encodeAtMost(f.sink, f.inputs, -1, CardEncoding::Sorter);
  EXPECT_EQ(f.solver.solve(), lbool::False);
}

TEST(Encodings, ActivatorGuardsConstraint) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Totalizer}) {
    Fixture f(4);
    const Lit act = posLit(f.solver.newVar());
    encodeAtMost(f.sink, f.inputs, 1, enc, act);
    // Without the activator: any popcount is fine.
    std::vector<Lit> all(f.inputs);
    EXPECT_EQ(f.solver.solve(all), lbool::True) << toString(enc);
    // With the activator: at most one input true.
    std::vector<Lit> withAct(f.inputs);
    withAct.push_back(act);
    EXPECT_EQ(f.solver.solve(withAct), lbool::False) << toString(enc);
    std::vector<Lit> ok{f.inputs[0], ~f.inputs[1], ~f.inputs[2], ~f.inputs[3],
                       act};
    EXPECT_EQ(f.solver.solve(ok), lbool::True) << toString(enc);
  }
}

TEST(Encodings, AtMostOnePairwiseAndLadder) {
  for (int variant = 0; variant < 2; ++variant) {
    Fixture f(5);
    if (variant == 0) {
      encodeAtMostOnePairwise(f.sink, f.inputs);
    } else {
      encodeAtMostOneLadder(f.sink, f.inputs);
    }
    for (std::uint32_t mask = 0; mask < 32; ++mask) {
      EXPECT_EQ(f.solveMask(mask) == lbool::True, std::popcount(mask) <= 1)
          << "variant " << variant << " mask " << mask;
    }
  }
}

TEST(Encodings, ExactlyOne) {
  for (int n : {2, 5, 12}) {  // 12 exercises the ladder path
    Fixture f(n);
    encodeExactlyOne(f.sink, f.inputs);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      EXPECT_EQ(f.solveMask(mask) == lbool::True, std::popcount(mask) == 1)
          << "n=" << n << " mask=" << mask;
    }
  }
}

TEST(SortingNetwork, NegatedOutputsBoundPopcount) {
  // The merges emit only input->output clauses, so a network built for
  // bounds of k or less gives `sum <= k'` through `~out[k']` for every
  // k' <= k, but not `sum >= k`.
  for (int n = 1; n <= 10; ++n) {
    for (int k = 0; k < n; ++k) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      Fixture f(n);
      const std::vector<Lit> out = buildSortingNetwork(f.sink, f.inputs, k);
      expectOutputsBoundPopcount(f, out, k);
    }
  }
}

TEST(SortingNetwork, MergeExtensionMatchesMonolithic) {
  // Sorting two batches and merging them must honour the same contract
  // as one network over all inputs, at every split point.
  for (int n = 2; n <= 8; ++n) {
    for (int split = 1; split < n; ++split) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " split=" << split);
      Fixture f(n);
      const std::span<const Lit> all(f.inputs);
      const std::vector<Lit> first =
          buildSortingNetwork(f.sink, all.subspan(0, split), n - 1);
      const std::vector<Lit> second =
          buildSortingNetwork(f.sink, all.subspan(split), n - 1);
      const std::vector<Lit> out = mergeSorted(f.sink, first, second);
      ASSERT_EQ(out.size(), f.inputs.size());
      expectOutputsBoundPopcount(f, out, n - 1);
    }
  }
}

TEST(SortingNetwork, JoinMatchesMonolithicUpToTheCut) {
  // Joining two batches sorted for bounds of k or less keeps the
  // outputs' contract at every position up to k. At these sizes the
  // direct merge is always the smaller one; core_infra_test checks a
  // join that takes the odd-even merge.
  for (int n = 2; n <= 8; ++n) {
    for (int split = 1; split < n; ++split) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " split=" << split);
      for (int k : {0, n / 2, n - 1}) {
        SCOPED_TRACE(testing::Message() << "k=" << k);
        Fixture f(n);
        const std::span<const Lit> all(f.inputs);
        const std::vector<Lit> first =
            buildSortingNetwork(f.sink, all.subspan(0, split), k);
        const std::vector<Lit> second =
            buildSortingNetwork(f.sink, all.subspan(split), k);
        const std::vector<Lit> out = joinSorted(f.sink, first, second, k);
        expectOutputsBoundPopcount(f, out, k);
      }
    }
  }
}

/// The sorter's three builders.
enum class SorterCall { Build, Merge, Join };

/// Runs `call` into a formula over fresh literals, `p` and `q` of them
/// (Build sorts all p + q; Build and Join cut at `k`), and checks what
/// model completion rests on ("Non-decision variables" in solver.h):
/// every clause emitted has at most one positive literal, over a
/// variable the call created, never an input or the constant.
void expectUpwardClauses(SorterCall call, int p, int q, int k) {
  CnfFormula cnf;
  FormulaSink sink(cnf);
  const Var constant = sink.trueLit().var();
  std::vector<Lit> a;
  std::vector<Lit> b;
  for (int i = 0; i < p; ++i) a.push_back(posLit(cnf.newVar()));
  for (int i = 0; i < q; ++i) b.push_back(posLit(cnf.newVar()));
  const Var firstCreated = cnf.numVars();
  const int firstClause = cnf.numClauses();
  switch (call) {
    case SorterCall::Build: {
      std::vector<Lit> all = a;
      all.insert(all.end(), b.begin(), b.end());
      static_cast<void>(buildSortingNetwork(sink, all, k));
      break;
    }
    case SorterCall::Merge:
      static_cast<void>(mergeSorted(sink, a, b));
      break;
    case SorterCall::Join:
      static_cast<void>(joinSorted(sink, a, b, k));
      break;
  }
  for (int c = firstClause; c < cnf.numClauses(); ++c) {
    int positives = 0;
    for (const Lit l : cnf.clause(c)) {
      if (!l.positive()) continue;
      ++positives;
      if (l.var() < firstCreated || l.var() == constant) {
        ADD_FAILURE() << "call " << static_cast<int>(call) << " p=" << p
                      << " q=" << q << " k=" << k << " clause " << c
                      << ": positive literal over variable " << l.var()
                      << ", which the call did not create";
        return;
      }
    }
    if (positives > 1) {
      ADD_FAILURE() << "call " << static_cast<int>(call) << " p=" << p
                    << " q=" << q << " k=" << k << " clause " << c << " has "
                    << positives << " positive literals";
      return;
    }
  }
}

TEST(SortingNetwork, EveryClauseLiftsInputsToOneCreatedOutput) {
  for (int n = 1; n <= 48; ++n) {
    for (int k = 0; k < n; ++k) expectUpwardClauses(SorterCall::Build, n, 0, k);
  }
  for (int p = 1; p <= 24; ++p) {
    for (int q = 1; q <= 24; ++q) {
      expectUpwardClauses(SorterCall::Merge, p, q, 0);
      for (int k = 0; k < p + q; ++k) {
        expectUpwardClauses(SorterCall::Join, p, q, k);
      }
    }
  }
}

TEST(BddAtMost, RootIsBiconditional) {
  for (int n : {3, 5}) {
    for (int k : {1, 2}) {
      Fixture f(n);
      const Lit root = buildAtMostBdd(f.sink, f.inputs, k);
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        ASSERT_EQ(f.solveMask(mask), lbool::True);
        EXPECT_EQ(f.solver.modelValue(root) == lbool::True,
                  std::popcount(mask) <= k)
            << "n=" << n << " k=" << k << " mask=" << mask;
      }
    }
  }
}

TEST(Totalizer, IncrementalExtensionMatchesMonolithic) {
  // Adding inputs in two batches must behave like a single totalizer.
  Fixture f(6);
  const std::vector<Lit> first(f.inputs.begin(), f.inputs.begin() + 4);
  Totalizer tot(f.sink, first);
  tot.addInputs(std::span<const Lit>(f.inputs.data() + 4, 2));
  ASSERT_EQ(tot.numInputs(), 6);
  const std::vector<Lit>& out = tot.outputs();
  for (std::uint32_t mask = 0; mask < 64; ++mask) {
    ASSERT_EQ(f.solveMask(mask), lbool::True);
    const int pop = std::popcount(mask);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(f.solver.modelValue(out[static_cast<std::size_t>(i)]) ==
                    lbool::True,
                pop >= i + 1)
          << "mask=" << mask << " out[" << i << "]";
    }
  }
}

TEST(Totalizer, EmptyThenExtend) {
  Fixture f(3);
  Totalizer tot(f.sink, {});
  EXPECT_EQ(tot.numInputs(), 0);
  tot.addInputs(f.inputs);
  EXPECT_EQ(tot.numInputs(), 3);
  // Assert at most 1 via the outputs.
  f.sink.addClause({~tot.outputs()[1]});
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    EXPECT_EQ(f.solveMask(mask) == lbool::True, std::popcount(mask) <= 1);
  }
}

/// A formula over `n` input variables and a sink that emits into it.
struct Emitted {
  CnfFormula cnf;
  FormulaSink sink{cnf};
  std::vector<Lit> inputs;

  explicit Emitted(int n) : cnf(n) {
    for (Var v = 0; v < n; ++v) inputs.push_back(posLit(v));
  }
};

TEST(EncodingSizes, PairwiseAtMostOneIsQuadratic) {
  const int n = 60;
  Emitted e(n);
  encodeAtMostOnePairwise(e.sink, e.inputs);
  EXPECT_EQ(e.cnf.numClauses(), n * (n - 1) / 2);
  EXPECT_EQ(e.cnf.numVars(), n);
}

TEST(EncodingSizes, BddGrowsWithK) {
  Emitted k2(20);
  Emitted k8(20);
  encodeAtMost(k2.sink, k2.inputs, 2, CardEncoding::Bdd);
  encodeAtMost(k8.sink, k8.inputs, 8, CardEncoding::Bdd);
  EXPECT_GT(k8.cnf.numClauses(), k2.cnf.numClauses());
}

}  // namespace
}  // namespace msu
