/// Property tests for the pseudo-Boolean encodings (BDD and adder
/// network): exhaustive equivalence with the arithmetic definition on
/// small instances, negative-coefficient normalization, and the adder /
/// comparator building blocks.

#include <gtest/gtest.h>

#include <random>

#include "encodings/pb.h"
#include "encodings/sink.h"
#include "sat/solver.h"

namespace msu {
namespace {

struct Fixture {
  Solver solver;
  SolverSink sink{solver};
  std::vector<Lit> inputs;

  explicit Fixture(int n) {
    for (int i = 0; i < n; ++i) inputs.push_back(posLit(solver.newVar()));
  }

  [[nodiscard]] lbool solveMask(std::uint32_t mask) {
    std::vector<Lit> assumps;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      assumps.push_back(((mask >> i) & 1u) != 0 ? inputs[i] : ~inputs[i]);
    }
    return solver.solve(assumps);
  }
};

Weight maskValue(std::span<const PbTerm> terms, std::uint32_t mask,
                 std::span<const Lit> inputs) {
  Weight v = 0;
  for (const PbTerm& t : terms) {
    // Find the input index of this term's variable.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].var() != t.lit.var()) continue;
      const bool varTrue = ((mask >> i) & 1u) != 0;
      const bool litTrue = t.lit.positive() ? varTrue : !varTrue;
      if (litTrue) v += t.coeff;
    }
  }
  return v;
}

struct PbCase {
  PbEncoding enc;
  std::vector<Weight> coeffs;
  Weight bound;
};

class PbLeqExhaustive : public ::testing::TestWithParam<PbCase> {};

TEST_P(PbLeqExhaustive, MatchesArithmetic) {
  const PbCase& c = GetParam();
  const int n = static_cast<int>(c.coeffs.size());
  Fixture f(n);
  std::vector<PbTerm> terms;
  for (int i = 0; i < n; ++i) {
    terms.push_back(PbTerm{f.inputs[static_cast<std::size_t>(i)],
                           c.coeffs[static_cast<std::size_t>(i)]});
  }
  encodePbLeq(f.sink, terms, c.bound, c.enc);
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const bool expect = maskValue(terms, mask, f.inputs) <= c.bound;
    const lbool st = f.solveMask(mask);
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, expect)
        << toString(c.enc) << " mask=" << mask << " bound=" << c.bound;
  }
}

std::vector<PbCase> pbCases() {
  std::vector<PbCase> cases;
  const std::vector<std::vector<Weight>> coeffSets = {
      {1, 1, 1, 1},        // cardinality
      {1, 2, 3, 4},        // distinct
      {3, 3, 5},           // repeats
      {7, 1, 1, 1, 1},     // dominated
      {2, 4, 8, 16},       // powers of two (adder-friendly)
      {5, 9, 13},          // odd mix
  };
  for (PbEncoding enc : {PbEncoding::Bdd, PbEncoding::Adder}) {
    for (const auto& coeffs : coeffSets) {
      Weight total = 0;
      for (Weight w : coeffs) total += w;
      for (Weight bound : {Weight{0}, total / 3, total / 2, total - 1}) {
        cases.push_back(PbCase{enc, coeffs, bound});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PbLeqExhaustive, ::testing::ValuesIn(pbCases()),
    [](const ::testing::TestParamInfo<PbCase>& info) {
      std::string name = toString(info.param.enc);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += "_c";
      for (Weight w : info.param.coeffs) name += std::to_string(w);
      name += "_b" + std::to_string(info.param.bound);
      return name;
    });

TEST(PbEncoding, NegativeCoefficientsNormalize) {
  // 2*x0 - 3*x1 <= 0  <=>  2*x0 + 3*(~x1) <= 3.
  for (PbEncoding enc : {PbEncoding::Bdd, PbEncoding::Adder}) {
    Fixture f(2);
    const std::vector<PbTerm> terms{{f.inputs[0], 2}, {f.inputs[1], -3}};
    encodePbLeq(f.sink, terms, 0, enc);
    // (x0, x1): value = 2*x0 - 3*x1.
    EXPECT_EQ(f.solveMask(0b00), lbool::True) << toString(enc);   // 0
    EXPECT_EQ(f.solveMask(0b01), lbool::False) << toString(enc);  // 2
    EXPECT_EQ(f.solveMask(0b10), lbool::True) << toString(enc);   // -3
    EXPECT_EQ(f.solveMask(0b11), lbool::True) << toString(enc);   // -1
  }
}

TEST(PbEncoding, TrivialAndInfeasibleBounds) {
  Fixture f(3);
  const std::vector<PbTerm> terms{
      {f.inputs[0], 1}, {f.inputs[1], 1}, {f.inputs[2], 1}};
  encodePbLeq(f.sink, terms, 10, PbEncoding::Bdd);  // trivially true
  EXPECT_EQ(f.solver.solve(), lbool::True);
  encodePbLeq(f.sink, terms, -1, PbEncoding::Bdd);  // falsum
  EXPECT_EQ(f.solver.solve(), lbool::False);
}

TEST(PbEncoding, ActivatorGuards) {
  for (PbEncoding enc : {PbEncoding::Bdd, PbEncoding::Adder}) {
    Fixture f(3);
    const Lit act = posLit(f.solver.newVar());
    const std::vector<PbTerm> terms{
        {f.inputs[0], 2}, {f.inputs[1], 3}, {f.inputs[2], 4}};
    encodePbLeq(f.sink, terms, 4, enc, act);
    std::vector<Lit> all{f.inputs[0], f.inputs[1], f.inputs[2]};
    EXPECT_EQ(f.solver.solve(all), lbool::True) << toString(enc);
    all.push_back(act);
    EXPECT_EQ(f.solver.solve(all), lbool::False) << toString(enc);
    const std::vector<Lit> ok{~f.inputs[0], ~f.inputs[1], f.inputs[2], act};
    EXPECT_EQ(f.solver.solve(ok), lbool::True) << toString(enc);
  }
}

/// Numbers variables and counts clauses without storing anything.
class CountingSink final : public ClauseSink {
 public:
  Var newVar() override { return num_vars_++; }
  [[nodiscard]] std::int64_t clauses() const { return clauses_; }

 protected:
  void emitClause(std::span<const Lit> /*lits*/) override { ++clauses_; }

 private:
  Var num_vars_ = 0;
  std::int64_t clauses_ = 0;
};

TEST(PbEncoding, BddAsDeepAsItsTermsBuildsWithoutRecursion) {
  // The diagram has one level per term, deeper than a call stack holds.
  // At bound 1 its inner nodes are (i, 1) for i < n-1 and (i, 0) for
  // 0 < i < n, each with a variable and six clauses; the sink's true
  // literal adds one unit clause.
  constexpr int kTerms = 100000;
  CountingSink sink;
  std::vector<PbTerm> terms;
  for (int i = 0; i < kTerms; ++i) terms.push_back({posLit(sink.newVar()), 1});
  const Lit root = buildPbLeqBdd(sink, terms, 1);
  EXPECT_EQ(root.var(), sink.newVar() - 1);  // the root is built last
  EXPECT_EQ(sink.clauses(), 1 + 6 * 2 * std::int64_t{kTerms - 1});
}

TEST(AdderNetwork, BitsEncodeTheSum) {
  // Check the adder's result bits against the true sum for all inputs.
  Fixture f(5);
  std::vector<PbTerm> terms;
  const Weight coeffs[] = {1, 2, 3, 4, 5};
  for (int i = 0; i < 5; ++i) {
    terms.push_back(PbTerm{f.inputs[static_cast<std::size_t>(i)], coeffs[i]});
  }
  const std::vector<Lit> bits = buildAdderNetwork(f.sink, terms);
  for (std::uint32_t mask = 0; mask < 32; ++mask) {
    ASSERT_EQ(f.solveMask(mask), lbool::True);
    Weight sum = 0;
    for (int i = 0; i < 5; ++i) {
      if ((mask >> i) & 1u) sum += coeffs[i];
    }
    Weight got = 0;
    for (std::size_t b = 0; b < bits.size(); ++b) {
      if (f.solver.modelValue(bits[b]) == lbool::True) {
        got += Weight{1} << b;
      }
    }
    EXPECT_EQ(got, sum) << "mask=" << mask;
  }
}

TEST(LeqConst, ComparatorMatchesUnsignedCompare) {
  // 3 free bits vs. every bound in [0, 8].
  for (Weight bound = 0; bound <= 8; ++bound) {
    Fixture f(3);
    const Lit le = buildLeqConst(f.sink, f.inputs, bound);
    for (std::uint32_t mask = 0; mask < 8; ++mask) {
      ASSERT_EQ(f.solveMask(mask), lbool::True);
      EXPECT_EQ(f.solver.modelValue(le) == lbool::True,
                static_cast<Weight>(mask) <= bound)
          << "mask=" << mask << " bound=" << bound;
    }
  }
}

}  // namespace
}  // namespace msu
