/// Unit tests for the cnf module: literals, formulas, WCNF, DIMACS I/O
/// and the exhaustive oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "cnf/dimacs.h"
#include "cnf/formula.h"
#include "cnf/literal.h"
#include "cnf/oracle.h"
#include "cnf/wcnf.h"

namespace msu {
namespace {

TEST(Literal, EncodingRoundTrip) {
  const Lit p = posLit(3);
  EXPECT_EQ(p.var(), 3);
  EXPECT_TRUE(p.positive());
  EXPECT_FALSE(p.negative());
  EXPECT_EQ(p.index(), 6);
  const Lit n = ~p;
  EXPECT_EQ(n.var(), 3);
  EXPECT_TRUE(n.negative());
  EXPECT_EQ(n.index(), 7);
  EXPECT_EQ(~n, p);
}

TEST(Literal, DimacsConversion) {
  EXPECT_EQ(Lit::fromDimacs(5), posLit(4));
  EXPECT_EQ(Lit::fromDimacs(-5), negLit(4));
  EXPECT_EQ(posLit(4).toDimacs(), 5);
  EXPECT_EQ(negLit(4).toDimacs(), -5);
}

TEST(Literal, UndefIsNotDefined) {
  EXPECT_FALSE(kUndefLit.defined());
  EXPECT_TRUE(posLit(0).defined());
}

TEST(Literal, Ordering) {
  EXPECT_LT(posLit(0), negLit(0));
  EXPECT_LT(negLit(0), posLit(1));
}

TEST(Lbool, NegationAndSign) {
  EXPECT_EQ(~lbool::True, lbool::False);
  EXPECT_EQ(~lbool::False, lbool::True);
  EXPECT_EQ(~lbool::Undef, lbool::Undef);
  EXPECT_EQ(applySign(lbool::True, negLit(0)), lbool::False);
  EXPECT_EQ(applySign(lbool::False, negLit(0)), lbool::True);
  EXPECT_EQ(applySign(lbool::Undef, negLit(0)), lbool::Undef);
}

TEST(CnfFormula, AddClauseGrowsVariables) {
  CnfFormula f;
  f.addClause({posLit(2), negLit(5)});
  EXPECT_EQ(f.numVars(), 6);
  EXPECT_EQ(f.numClauses(), 1);
  EXPECT_EQ(f.numLiterals(), 2);
}

TEST(CnfFormula, SatisfactionCounting) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0), posLit(1)});
  f.addClause({negLit(1)});
  Assignment a{lbool::True, lbool::True};
  EXPECT_EQ(f.numSatisfied(a), 2);
  EXPECT_FALSE(f.satisfies(a));
  Assignment b{lbool::True, lbool::False};
  EXPECT_EQ(f.numSatisfied(b), 2);
}

TEST(CnfFormula, NormalizedRemovesTautologiesAndDuplicates) {
  CnfFormula f(3);
  f.addClause({posLit(0), negLit(0)});          // tautology
  f.addClause({posLit(1), posLit(2), posLit(1)});  // dup literal
  f.addClause({posLit(2), posLit(1)});          // dup clause (reordered)
  const CnfFormula n = f.normalized();
  EXPECT_EQ(n.numClauses(), 1);
  EXPECT_EQ(n.clause(0).size(), 2u);
}

TEST(CnfFormula, EmptyClauseAllowed) {
  CnfFormula f;
  f.addClause(std::initializer_list<Lit>{});
  EXPECT_EQ(f.numClauses(), 1);
  EXPECT_FALSE(f.satisfies(Assignment{}));
}

// ---- Clause: four literals inline, longer clauses on the heap ------------

static_assert(sizeof(Clause) == sizeof(std::vector<Lit>));

/// The literals 0..n-1 with alternating signs, as the reference vector.
std::vector<Lit> litsOf(int n) {
  std::vector<Lit> v;
  for (int i = 0; i < n; ++i) v.push_back(mkLit(i, i % 2 == 1));
  return v;
}

Clause clauseOf(const std::vector<Lit>& v) {
  Clause c;
  for (const Lit p : v) c.push_back(p);
  return c;
}

bool same(const Clause& c, const std::vector<Lit>& v) {
  return std::equal(c.begin(), c.end(), v.begin(), v.end());
}

TEST(Clause, HeapBytesOnlyPastTheInlineCapacity) {
  for (const int n : {0, 4, 5, 1000}) {
    const Clause c = clauseOf(litsOf(n));
    EXPECT_TRUE(same(c, litsOf(n))) << n;
    EXPECT_EQ(c.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(c.empty(), n == 0);
    if (n <= 4) {
      EXPECT_EQ(c.capacity(), Clause::kInline) << n;
      EXPECT_EQ(c.heapBytes(), 0u) << n;
    } else {
      EXPECT_GE(c.capacity(), static_cast<std::size_t>(n)) << n;
      EXPECT_EQ(c.heapBytes(), c.capacity() * sizeof(Lit)) << n;
    }
    // A copy holds exactly what it needs: inline up to four literals.
    const Clause copy(c);
    EXPECT_EQ(copy.heapBytes(), n <= 4 ? 0u : n * sizeof(Lit)) << n;
  }
}

TEST(Clause, CopyMoveAndSelfAssignmentAcrossTheBoundary) {
  for (const int a : {0, 4, 5, 1000}) {
    for (const int b : {0, 4, 5, 1000}) {
      const std::vector<Lit> va = litsOf(a);
      const std::vector<Lit> vb = litsOf(b);

      Clause copy = clauseOf(va);
      Clause src = clauseOf(vb);
      copy = src;  // copy assignment keeps the source
      EXPECT_TRUE(same(copy, vb)) << a << " <- " << b;
      EXPECT_TRUE(same(src, vb)) << a << " <- " << b;
      if (!copy.empty()) copy[0] = ~copy[0];  // copies are independent
      EXPECT_TRUE(same(src, vb)) << a << " <- " << b;

      Clause moved = clauseOf(va);
      moved = std::move(src);  // leaves the source empty and inline
      EXPECT_TRUE(same(moved, vb)) << a << " <- " << b;
      EXPECT_TRUE(src.empty()) << a << " <- " << b;
      EXPECT_EQ(src.heapBytes(), 0u);
      src.push_back(posLit(7));  // and usable
      EXPECT_EQ(src.size(), 1u);
    }
    Clause c = clauseOf(litsOf(a));
    const Clause& alias = c;
    c = alias;
    EXPECT_TRUE(same(c, litsOf(a))) << a;
    Clause& self = c;
    c = std::move(self);
    EXPECT_TRUE(same(c, litsOf(a))) << a;
    Clause built(std::move(c));
    EXPECT_TRUE(same(built, litsOf(a))) << a;
    EXPECT_TRUE(c.empty()) << a;
  }
}

TEST(Clause, ClearKeepsCapacityAndRegrows) {
  for (const int n : {0, 4, 5, 1000}) {
    Clause c = clauseOf(litsOf(n));
    const std::size_t cap = c.capacity();
    c.clear();
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.capacity(), cap);
    for (const int m : {3, 5, n}) {
      c.clear();
      for (const Lit p : litsOf(m)) c.push_back(p);
      EXPECT_TRUE(same(c, litsOf(m))) << n << " then " << m;
    }
  }
}

TEST(Clause, InsertAndEraseMatchVector) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 50; ++round) {
    Clause c;
    std::vector<Lit> v;
    for (int step = 0; step < 40; ++step) {
      const auto pos = static_cast<std::ptrdiff_t>(rng() % (v.size() + 1));
      const Lit p = mkLit(static_cast<Var>(rng() % 50), (rng() & 1) != 0);
      if (v.empty() || rng() % 3 != 0) {
        const auto it = c.insert(c.begin() + pos, p);
        v.insert(v.begin() + pos, p);
        EXPECT_EQ(it - c.begin(), pos);
      } else if (rng() % 2 == 0) {
        const auto at = pos == static_cast<std::ptrdiff_t>(v.size()) ? 0 : pos;
        const auto it = c.erase(c.begin() + at);
        v.erase(v.begin() + at);
        EXPECT_EQ(it - c.begin(), at);
      } else {
        const auto len = rng() % (v.size() - pos + 1);
        const auto last = pos + static_cast<std::ptrdiff_t>(len);
        c.erase(c.begin() + pos, c.begin() + last);
        v.erase(v.begin() + pos, v.begin() + last);
      }
      ASSERT_TRUE(same(c, v)) << "round " << round << " step " << step;
    }
    c.insert(c.begin(), c.back());  // an element of the clause itself
    v.insert(v.begin(), v.back());
    EXPECT_TRUE(same(c, v)) << "round " << round;
  }
}

TEST(Clause, OrderAndEqualityMatchVector) {
  std::mt19937_64 rng(5);
  std::set<Clause> clauses;
  std::set<std::vector<Lit>> vectors;
  const auto draw = [&] {
    std::vector<Lit> v(rng() % 7);
    for (Lit& p : v) p = mkLit(static_cast<Var>(rng() % 3), (rng() & 1) != 0);
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::vector<Lit> va = draw();
    const std::vector<Lit> vb = draw();
    const Clause a(va.begin(), va.end());
    const Clause b(vb.begin(), vb.end());
    EXPECT_EQ(a == b, va == vb);
    EXPECT_EQ(a < b, va < vb);
    EXPECT_EQ(b < a, vb < va);
    clauses.insert(a);
    vectors.insert(va);
  }
  ASSERT_EQ(clauses.size(), vectors.size());
  auto v = vectors.begin();
  for (const Clause& c : clauses) EXPECT_TRUE(same(c, *v++));
}

TEST(Clause, MemEstimateCountsOnlyHeapClauses) {
  CnfFormula f;
  WcnfFormula w;
  std::size_t heap = 0;  // literal bytes of the clauses past four
  for (const int n : {1, 2, 3, 4, 5, 4, 1000, 0}) {
    f.addClause(litsOf(n));
    w.addHard(litsOf(n));
    w.addSoft(litsOf(n), 2);
    if (n > 4) heap += n * sizeof(Lit);  // a copied clause fits exactly
    const std::size_t slotsF = f.clauses().capacity() * sizeof(Clause);
    EXPECT_EQ(f.memBytesEstimate(), static_cast<std::int64_t>(slotsF + heap))
        << n;
    const std::size_t slotsW = w.hard().capacity() * sizeof(Clause) +
                               w.soft().capacity() * sizeof(SoftClause);
    EXPECT_EQ(w.memBytesEstimate(),
              static_cast<std::int64_t>(slotsW + 2 * heap))
        << n;
  }
}

TEST(Wcnf, AllSoftLiftsEveryClause) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0), posLit(1)});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.numHard(), 0);
  EXPECT_TRUE(w.isPlain());
  EXPECT_TRUE(w.isUnweighted());
}

TEST(Wcnf, CostCountsFalsifiedSoftWeight) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addSoft({posLit(1)}, 3);
  w.addSoft({negLit(1)}, 2);
  Assignment a{lbool::True, lbool::True};
  EXPECT_EQ(w.cost(a), 2);
  Assignment b{lbool::True, lbool::False};
  EXPECT_EQ(w.cost(b), 3);
  Assignment c{lbool::False, lbool::True};
  EXPECT_FALSE(w.cost(c).has_value());  // hard violated
}

TEST(Wcnf, UnweightedDuplication) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 3);
  const auto u = w.unweighted();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->numSoft(), 3);
  EXPECT_TRUE(u->isUnweighted());
  EXPECT_FALSE(w.unweighted(2).has_value());  // exceeds the cap
}

TEST(Wcnf, UnitWeightReusesUnitWeightInput) {
  WcnfFormula unit(2);
  unit.addHard({posLit(0)});
  unit.addSoft({posLit(1)});
  unit.addSoft({negLit(1)});
  std::optional<WcnfFormula> expanded;
  // The input itself, not a copy, and no expansion — even past the cap,
  // which bounds only what an expansion would add.
  EXPECT_EQ(unit.unitWeight(expanded), &unit);
  EXPECT_EQ(unit.unitWeight(expanded, 1), &unit);
  EXPECT_FALSE(expanded.has_value());

  WcnfFormula weighted(1);
  weighted.addSoft({posLit(0)}, 3);
  const WcnfFormula* u = weighted.unitWeight(expanded);
  ASSERT_TRUE(expanded.has_value());
  EXPECT_EQ(u, &*expanded);
  EXPECT_EQ(u->numSoft(), 3);
  EXPECT_TRUE(u->isUnweighted());
  EXPECT_EQ(weighted.unitWeight(expanded, 2), nullptr);  // exceeds the cap
}

TEST(Wcnf, NumSoftSatisfiedMatchesPaperObjective) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  Assignment a{lbool::True};
  EXPECT_EQ(w.numSoftSatisfied(a), 1);
}

TEST(Dimacs, ParseSimpleCnf) {
  const std::string text = R"(c a comment
p cnf 3 2
1 -2 0
2 3 0
)";
  const CnfFormula f = parseDimacsCnf(text);
  EXPECT_EQ(f.numVars(), 3);
  EXPECT_EQ(f.numClauses(), 2);
  EXPECT_EQ(f.clause(0), (Clause{posLit(0), negLit(1)}));
}

TEST(Dimacs, RoundTripCnf) {
  CnfFormula f(4);
  f.addClause({posLit(0), negLit(3)});
  f.addClause({posLit(1), posLit(2), negLit(0)});
  const CnfFormula g = parseDimacsCnf(toDimacsString(f));
  EXPECT_EQ(g.numVars(), f.numVars());
  ASSERT_EQ(g.numClauses(), f.numClauses());
  for (int i = 0; i < f.numClauses(); ++i) {
    EXPECT_EQ(g.clause(i), f.clause(i));
  }
}

TEST(Dimacs, ParseWcnfWithTop) {
  const std::string text = R"(p wcnf 2 3 10
10 1 0
1 2 0
3 -2 0
)";
  const WcnfFormula w = parseDimacsWcnf(text);
  EXPECT_EQ(w.numHard(), 1);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.soft()[1].weight, 3);
}

TEST(Dimacs, PlainCnfReadAsWcnfBecomesAllSoft) {
  const std::string text = "p cnf 2 2\n1 0\n-1 2 0\n";
  const WcnfFormula w = parseDimacsWcnf(text);
  EXPECT_EQ(w.numHard(), 0);
  EXPECT_EQ(w.numSoft(), 2);
}

TEST(Dimacs, RoundTripWcnf) {
  WcnfFormula w(3);
  w.addHard({posLit(0), posLit(1)});
  w.addSoft({negLit(2)}, 2);
  w.addSoft({posLit(2), negLit(0)}, 1);
  const WcnfFormula v = parseDimacsWcnf(toDimacsString(w));
  EXPECT_EQ(v.numHard(), 1);
  EXPECT_EQ(v.numSoft(), 2);
  EXPECT_EQ(v.soft()[0].weight, 2);
  EXPECT_EQ(v.hard()[0], w.hard()[0]);
}

TEST(Dimacs, ErrorOnMissingHeader) {
  EXPECT_THROW(parseDimacsCnf("1 2 0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnLiteralOutOfRange) {
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n3 0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnUnterminatedClause) {
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n1 2\n"), DimacsError);
}

TEST(Oracle, SatAndUnsat) {
  CnfFormula sat(2);
  sat.addClause({posLit(0), posLit(1)});
  EXPECT_TRUE(oracleSat(sat).has_value());

  CnfFormula unsat(1);
  unsat.addClause({posLit(0)});
  unsat.addClause({negLit(0)});
  EXPECT_TRUE(oracleUnsat(unsat));
}

TEST(Oracle, MaxSatOptimum) {
  // The paper's Example 1: (x1)(x2 + ~x1)(~x2) — one clause must fall.
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({posLit(1), negLit(0)});
  f.addClause({negLit(1)});
  const OracleResult r = oracleMaxSat(WcnfFormula::allSoft(f));
  ASSERT_TRUE(r.optimumCost.has_value());
  EXPECT_EQ(*r.optimumCost, 1);
}

TEST(Oracle, MaxSatRespectsHardClauses) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addSoft({negLit(0)}, 1);
  const OracleResult r = oracleMaxSat(w);
  ASSERT_TRUE(r.optimumCost.has_value());
  EXPECT_EQ(*r.optimumCost, 1);
  EXPECT_EQ(r.model[0], lbool::True);
}

TEST(Oracle, MaxSatUnsatHard) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 1);
  EXPECT_FALSE(oracleMaxSat(w).optimumCost.has_value());
}

TEST(Oracle, SubsetUnsat) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0)});
  f.addClause({posLit(1)});
  const std::vector<int> core{0, 1};
  EXPECT_TRUE(oracleSubsetUnsat(f, core));
  const std::vector<int> notCore{0, 2};
  EXPECT_FALSE(oracleSubsetUnsat(f, notCore));
}

}  // namespace
}  // namespace msu
