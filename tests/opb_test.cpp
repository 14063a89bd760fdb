/// Tests for the OPB reader/writer and the PBO engine on OPB inputs:
///  * parsing of objectives, all three relations, `~x` literals,
///    comments, and malformed-input rejection;
///  * normalization invariants (positive objective coefficients,
///    offset bookkeeping for negative ones);
///  * solved optima match exhaustive references, including knapsack
///    and assignment-style instances;
///  * write/parse round trips preserve the optimum.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "pbo/opb.h"
#include "pbo/pbo_solver.h"

namespace msu {
namespace {

/// Exhaustive PBO reference (tiny instances only).
struct BruteForce {
  bool feasible = false;
  Weight best = 0;
};

BruteForce bruteForce(const PboProblem& p) {
  BruteForce out;
  for (std::uint32_t mask = 0; mask < (1u << p.numVars); ++mask) {
    const auto litTrue = [&](Lit l) {
      const bool v = ((mask >> l.var()) & 1u) != 0;
      return l.positive() ? v : !v;
    };
    bool ok = true;
    for (const Clause& c : p.clauses) {
      bool sat = false;
      for (const Lit l : c) sat = sat || litTrue(l);
      ok = ok && sat;
    }
    for (const PbConstraint& pc : p.constraints) {
      Weight sum = 0;
      for (const PbTerm& t : pc.terms) {
        if (litTrue(t.lit)) sum += t.coeff;
      }
      ok = ok && sum <= pc.bound;
    }
    if (!ok) continue;
    Weight obj = p.objectiveOffset;
    for (const PbTerm& t : p.objective) {
      if (litTrue(t.lit)) obj += t.coeff;
    }
    if (!out.feasible || obj < out.best) {
      out.feasible = true;
      out.best = obj;
    }
  }
  return out;
}

TEST(OpbParseTest, ObjectiveAndRelations) {
  const PboProblem p = parseOpb(
      "* comment line\n"
      "min: +1 x1 +2 x2 ;\n"
      "+1 x1 +1 x2 >= 1 ;\n"
      "+2 x1 +3 x2 <= 4 ;\n"
      "+1 x1 -1 x2 = 0 ;\n");
  EXPECT_EQ(p.numVars, 2);
  EXPECT_EQ(p.objective.size(), 2u);
  // >= contributes 1 constraint, <= 1, = splits into 2.
  EXPECT_EQ(p.constraints.size(), 4u);
  EXPECT_EQ(p.objectiveOffset, 0);
}

TEST(OpbParseTest, NegatedLiteralsAndNegativeObjective) {
  const PboProblem p = parseOpb(
      "min: -3 x1 +2 ~x2 ;\n"
      "+1 ~x1 +1 x2 >= 1 ;\n");
  // -3 x1 normalizes to +3 ~x1 with offset -3.
  EXPECT_EQ(p.objectiveOffset, -3);
  for (const PbTerm& t : p.objective) EXPECT_GT(t.coeff, 0);
}

TEST(OpbParseTest, MalformedInputsThrow) {
  EXPECT_THROW(parseOpb("min: +1 x1"), OpbError);          // missing ';'
  EXPECT_THROW(parseOpb("+1 x1 >= ;"), OpbError);          // missing bound
  EXPECT_THROW(parseOpb("+1 y1 >= 1 ;"), OpbError);        // bad var
  EXPECT_THROW(parseOpb("+a x1 >= 1 ;"), OpbError);        // bad coeff
  EXPECT_THROW(parseOpb("+1 x1 +2 >= 1 ;"), OpbError);     // orphan coeff
  EXPECT_THROW(parseOpb("+1 x0 >= 1 ;"), OpbError);        // 1-based ids
  EXPECT_NO_THROW(parseOpb(""));                           // empty is fine
  // Integers must satisfy |v| <= INT64_MAX, so the `>=` flip and the
  // objective rewrite can negate them: a 20-digit bound that wraps
  // uint64 to 1 and INT64_MIN both throw.
  EXPECT_THROW(parseOpb("+1 x1 >= 18446744073709551617 ;"), OpbError);
  EXPECT_THROW(parseOpb("+1 x1 >= -9223372036854775808 ;"), OpbError);
  EXPECT_THROW(parseOpb("min: -9223372036854775808 x1 ;"), OpbError);
  EXPECT_THROW(parseOpb("+1 x18446744073709551617 >= 1 ;"), OpbError);
  const PboProblem edge = parseOpb(
      "min: -9223372036854775807 x1 ;\n+1 x1 >= -9223372036854775807 ;");
  EXPECT_EQ(edge.objectiveOffset, -9223372036854775807LL);
  EXPECT_EQ(edge.constraints[0].bound, 9223372036854775807LL);
  // The offset the rewrite accumulates must not overflow either.
  EXPECT_THROW(parseOpb("min: -9223372036854775807 x1 -2 x2 ;"), OpbError);
}

TEST(OpbSolveTest, KnapsackOptimum) {
  // max 4a+5b+3c+7d s.t. 3a+4b+2c+5d <= 8  == min forgone value.
  const PboProblem p = parseOpb(
      "min: +4 ~x1 +5 ~x2 +3 ~x3 +7 ~x4 ;\n"
      "+3 x1 +4 x2 +2 x3 +5 x4 <= 8 ;\n");
  PboSolver solver;
  const PboResult r = solver.solve(p);
  ASSERT_EQ(r.status, PboStatus::Optimum);
  const BruteForce ref = bruteForce(p);
  ASSERT_TRUE(ref.feasible);
  EXPECT_EQ(r.objective, ref.best);
  // Best packing: c+d+... weight 2+5=7 value 10; or a+d weight 8 value 11.
  EXPECT_EQ(r.objective, 19 - 11);
}

TEST(OpbSolveTest, InfeasibleDetected) {
  const PboProblem p = parseOpb(
      "min: +1 x1 ;\n"
      "+1 x1 >= 1 ;\n"
      "+1 x1 <= 0 ;\n");
  PboSolver solver;
  EXPECT_EQ(solver.solve(p).status, PboStatus::Infeasible);
}

TEST(OpbSolveTest, EqualityConstraintsRespected) {
  // Exactly 2 of 4 must be chosen; minimize a weighted selection.
  const PboProblem p = parseOpb(
      "min: +5 x1 +1 x2 +3 x3 +2 x4 ;\n"
      "+1 x1 +1 x2 +1 x3 +1 x4 = 2 ;\n");
  PboSolver solver;
  const PboResult r = solver.solve(p);
  ASSERT_EQ(r.status, PboStatus::Optimum);
  EXPECT_EQ(r.objective, 3);  // x2 + x4
}

TEST(OpbSolveTest, NegativeCoefficientConstraints) {
  for (auto enc : {PbEncoding::Bdd, PbEncoding::Adder}) {
    const PboProblem p = parseOpb(
        "min: +1 x1 +1 x2 +1 x3 ;\n"
        "-2 x1 +3 x2 -1 x3 <= 0 ;\n"
        "+1 x2 >= 1 ;\n");
    PboOptions opts;
    opts.encoding = enc;
    PboSolver solver(opts);
    const PboResult r = solver.solve(p);
    ASSERT_EQ(r.status, PboStatus::Optimum);
    const BruteForce ref = bruteForce(p);
    ASSERT_TRUE(ref.feasible);
    EXPECT_EQ(r.objective, ref.best) << toString(enc);
  }
}

TEST(OpbSolveTest, OffsetIsReportedInTheObjective) {
  const PboProblem p = parseOpb(
      "min: -2 x1 ;\n"
      "+1 x1 <= 1 ;\n");
  PboSolver solver;
  const PboResult r = solver.solve(p);
  ASSERT_EQ(r.status, PboStatus::Optimum);
  EXPECT_EQ(r.objective, -2);  // pick x1
}

TEST(OpbRoundTripTest, WriteThenParsePreservesTheOptimum) {
  const PboProblem original = parseOpb(
      "min: +2 x1 +3 x2 +1 x3 ;\n"
      "+1 x1 +1 x2 +1 x3 >= 2 ;\n"
      "+5 x1 +4 x2 +3 x3 <= 9 ;\n");
  std::ostringstream out;
  writeOpb(out, original);
  const PboProblem reparsed = parseOpb(out.str());
  PboSolver solver;
  const PboResult a = solver.solve(original);
  const PboResult b = solver.solve(reparsed);
  ASSERT_EQ(a.status, PboStatus::Optimum);
  ASSERT_EQ(b.status, PboStatus::Optimum);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(OpbRoundTripTest, RandomInstancesAgreeWithBruteForce) {
  std::mt19937_64 rng(4);
  for (int round = 0; round < 10; ++round) {
    std::ostringstream opb;
    opb << "min:";
    const int n = 6;
    for (int v = 1; v <= n; ++v) {
      opb << " +" << 1 + rng() % 5 << " x" << v;
    }
    opb << " ;\n";
    for (int c = 0; c < 3; ++c) {
      opb << "+" << 1 + rng() % 3 << " x" << 1 + rng() % n << " +"
          << 1 + rng() % 3 << " x" << 1 + rng() % n << " >= "
          << 1 + rng() % 3 << " ;\n";
    }
    const PboProblem p = parseOpb(opb.str());
    PboSolver solver;
    const PboResult r = solver.solve(p);
    const BruteForce ref = bruteForce(p);
    if (!ref.feasible) {
      EXPECT_EQ(r.status, PboStatus::Infeasible) << "round " << round;
    } else {
      ASSERT_EQ(r.status, PboStatus::Optimum) << "round " << round;
      EXPECT_EQ(r.objective, ref.best) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace msu
