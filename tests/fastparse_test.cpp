/// Tests for the zero-copy parser core (cnf/fastparse.h): writer ->
/// parser round trips of generated formulas in all three formats, each
/// compared with the formula that generated it; line-anchored comments,
/// competition conventions ('%' terminator, CRLF, malformed headers),
/// integer and weight-sum overflow, mmap-vs-fallback equivalence, and
/// the direct buffer-to-solver bulk loader.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "cnf/dimacs.h"
#include "cnf/fastparse.h"
#include "cnf/formula.h"
#include "cnf/wcnf.h"
#include "gen/bigfile.h"
#include "gen/random_cnf.h"
#include "pbo/opb.h"
#include "sat/solver.h"

namespace msu {
namespace {

void expectSameCnf(const CnfFormula& a, const CnfFormula& b) {
  ASSERT_EQ(a.numVars(), b.numVars());
  ASSERT_EQ(a.numClauses(), b.numClauses());
  for (int i = 0; i < a.numClauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i)) << "clause " << i;
  }
}

void expectSameWcnf(const WcnfFormula& a, const WcnfFormula& b) {
  ASSERT_EQ(a.numVars(), b.numVars());
  ASSERT_EQ(a.numHard(), b.numHard());
  ASSERT_EQ(a.numSoft(), b.numSoft());
  for (int i = 0; i < a.numHard(); ++i) {
    EXPECT_EQ(a.hard()[i], b.hard()[i]) << "hard " << i;
  }
  for (int i = 0; i < a.numSoft(); ++i) {
    EXPECT_EQ(a.soft()[i].lits, b.soft()[i].lits) << "soft " << i;
    EXPECT_EQ(a.soft()[i].weight, b.soft()[i].weight) << "soft " << i;
  }
}

void expectSamePbo(const PboProblem& a, const PboProblem& b) {
  ASSERT_EQ(a.numVars, b.numVars);
  ASSERT_EQ(a.clauses.size(), b.clauses.size());
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  ASSERT_EQ(a.objective.size(), b.objective.size());
  EXPECT_EQ(a.objectiveOffset, b.objectiveOffset);
  for (std::size_t i = 0; i < a.objective.size(); ++i) {
    EXPECT_EQ(a.objective[i].coeff, b.objective[i].coeff);
    EXPECT_EQ(a.objective[i].lit, b.objective[i].lit);
  }
  for (std::size_t i = 0; i < a.constraints.size(); ++i) {
    ASSERT_EQ(a.constraints[i].terms.size(), b.constraints[i].terms.size());
    EXPECT_EQ(a.constraints[i].bound, b.constraints[i].bound);
    for (std::size_t j = 0; j < a.constraints[i].terms.size(); ++j) {
      EXPECT_EQ(a.constraints[i].terms[j].coeff,
                b.constraints[i].terms[j].coeff);
      EXPECT_EQ(a.constraints[i].terms[j].lit, b.constraints[i].terms[j].lit);
    }
  }
}

// ---- Writer -> parser round trips ---------------------------------------
//
// Each parse is compared with the formula that generated the text, so
// the oracle depends on no parser.

TEST(FastParse, CnfRoundTripFuzz) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomCnfParams p;
    p.numVars = 5 + static_cast<int>(seed) * 3;
    p.numClauses = 20 + static_cast<int>(seed) * 17;
    p.seed = seed;
    const CnfFormula f = randomKSat(p);
    expectSameCnf(f, parseDimacsCnf(toDimacsString(f)));
  }
}

TEST(FastParse, WcnfRoundTripFuzz) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    WcnfFormula w(8 + round);
    const int clauses = 25 + round * 13;
    for (int i = 0; i < clauses; ++i) {
      Clause c;
      const int len = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < len; ++k) {
        const Var v = static_cast<Var>(rng() % static_cast<unsigned>(
                                                   w.numVars()));
        c.push_back((rng() & 1) != 0 ? posLit(v) : negLit(v));
      }
      if (rng() % 3 == 0) {
        w.addHard(c);
      } else {
        w.addSoft(c, 1 + static_cast<Weight>(rng() % 9));
      }
    }
    // The old `p wcnf ... top` format: hard clauses carry weight top.
    expectSameWcnf(w, parseDimacsWcnf(toDimacsString(w)));
  }
}

TEST(FastParse, OpbRoundTripFuzz) {
  // writeOpb emits `<=` constraints as they are, clauses as `>=`
  // constraints over positive literals and a complemented objective
  // literal as a negative coefficient. So the parse must return the
  // objective and the constraints unchanged, each clause as the `<=`
  // flip of its `>=` form, and the offset that pays for the
  // complemented objective literals.
  std::mt19937_64 rng(11);
  for (int round = 0; round < 8; ++round) {
    const int vars = 4 + round * 3;
    Var maxVar = -1;
    const auto lit = [&](bool positiveOnly) {
      const Var v = static_cast<Var>(rng() % static_cast<unsigned>(vars));
      maxVar = std::max(maxVar, v);
      return positiveOnly || (rng() & 1) != 0 ? posLit(v) : negLit(v);
    };
    const auto coeff = [&rng](int range) {
      return static_cast<Weight>(rng() % static_cast<unsigned>(2 * range + 1)) -
             range;
    };
    PboProblem generated;
    for (int i = 0; i < 2 + round; ++i) {
      generated.objective.push_back(
          {lit(false), 1 + static_cast<Weight>(rng() % 9)});
    }
    for (int i = 0; i < 3 + round * 2; ++i) {
      PbConstraint pc;
      const int terms = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < terms; ++k) pc.terms.push_back({lit(true), coeff(9)});
      pc.bound = coeff(20);
      generated.constraints.push_back(pc);
    }
    for (int i = 0; i < 2 + round; ++i) {
      Clause c;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < len; ++k) c.push_back(lit(false));
      generated.clauses.push_back(c);
    }
    generated.numVars = maxVar + 1;

    PboProblem expected = generated;
    expected.clauses.clear();
    for (const PbTerm& t : generated.objective) {
      if (t.lit.negative()) expected.objectiveOffset -= t.coeff;
    }
    for (const Clause& c : generated.clauses) {
      // sum(l) >= 1 over x: +1 x for x, -1 x (and bound - 1) for ~x;
      // flipped to sum(-c*x) <= -b.
      PbConstraint flipped;
      Weight bound = 1;
      for (const Lit p : c) {
        flipped.terms.push_back({posLit(p.var()), p.negative() ? 1 : -1});
        if (p.negative()) --bound;
      }
      flipped.bound = -bound;
      expected.constraints.push_back(flipped);
    }

    std::ostringstream text;
    writeOpb(text, generated);
    expectSamePbo(expected, parseOpb(text.str()));
  }
}

// ---- Line-anchored comments (the legacy heuristic's failure modes) -------

TEST(FastParse, CommentOnlyAtLineStart) {
  // A full comment line between clauses is skipped...
  const CnfFormula ok = parseDimacsCnf(
      "c header comment\np cnf 3 2\n1 -2 0\nc interlude, even c-words\n2 3 "
      "0\n");
  EXPECT_EQ(ok.numClauses(), 2);
  // ...but a stray word inside a clause is an error, never a comment.
  EXPECT_THROW(parseDimacsCnf("p cnf 3 1\n1 cat 0\n"), DimacsError);
  EXPECT_THROW(parseDimacsCnf("p cnf 3 2\n1 cat 0\n2 0\n"), DimacsError);
}

TEST(FastParse, PercentTerminatorEndsInput) {
  // SAT-competition trailer: "%" line, then junk that must be ignored.
  const CnfFormula f = parseDimacsCnf("p cnf 2 1\n1 -2 0\n%\n0\n");
  EXPECT_EQ(f.numClauses(), 1);
  // Mid-token '%' is not a terminator (only line-anchored).
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n1 %x 0\n"), DimacsError);
}

TEST(FastParse, CrlfAndBlankLines) {
  const CnfFormula f =
      parseDimacsCnf("c win\r\np cnf 3 2\r\n\r\n1 2 0\r\n-1 -3 0\r\n");
  EXPECT_EQ(f.numVars(), 3);
  EXPECT_EQ(f.numClauses(), 2);
  EXPECT_EQ(f.clause(0), (Clause{posLit(0), posLit(1)}));
}

// ---- Headers -------------------------------------------------------------

TEST(FastParse, HeaderErrors) {
  EXPECT_THROW(parseDimacsCnf(""), DimacsError);
  EXPECT_THROW(parseDimacsCnf("c only comments\n"), DimacsError);
  EXPECT_THROW(parseDimacsCnf("1 2 0\n"), DimacsError);        // missing p
  EXPECT_THROW(parseDimacsCnf("p cnf 3\n1 0\n"), DimacsError);  // short
  EXPECT_THROW(parseDimacsCnf("p cnf 3 1 9\n1 0\n"), DimacsError);  // long
  EXPECT_THROW(parseDimacsCnf("p dnf 3 1\n1 0\n"), DimacsError);
  EXPECT_THROW(parseDimacsCnf("p cnf -3 1\n1 0\n"), DimacsError);
  EXPECT_THROW(parseDimacsCnf("p wcnf 2 1 5\n5 1 0\n"), DimacsError);
}

TEST(FastParse, LiteralRangeAndOverflow) {
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n3 0\n"), DimacsError);
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n-3 0\n"), DimacsError);
  // 10+ digits take the slow re-parse path; still range-checked.
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n1000000000 0\n"), DimacsError);
  // 20 digits overflow int64 outright.
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n99999999999999999999 0\n"),
               DimacsError);
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n1 2\n"), DimacsError);  // no 0
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n- 1 0\n"), DimacsError);
  // INT64_MIN cannot be negated: out of range everywhere, never UB.
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n-9223372036854775808 0\n"),
               DimacsError);
  EXPECT_THROW(parseDimacsWcnf("p wcnf 2 1 5\n-9223372036854775808 1 0\n"),
               DimacsError);
  EXPECT_THROW(parseDimacsWcnf("p wcnf 2 1 -9223372036854775808\n1 1 0\n"),
               DimacsError);
  // 20 digits that wrap uint64 back to a small value.
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n18446744073709551617 0\n"),
               DimacsError);
}

TEST(FastParse, ScanIntRange) {
  std::int64_t v = 0;
  EXPECT_EQ(scanInt("9223372036854775807", v), IntScan::kOk);
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(scanInt("-9223372036854775807", v), IntScan::kOk);
  EXPECT_EQ(v, -std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(scanInt("+0", v), IntScan::kOk);
  EXPECT_EQ(v, 0);
  EXPECT_EQ(scanInt("9223372036854775808", v), IntScan::kOverflow);
  EXPECT_EQ(scanInt("-9223372036854775808", v), IntScan::kOverflow);
  EXPECT_EQ(scanInt("18446744073709551617", v), IntScan::kOverflow);
  EXPECT_EQ(scanInt("99999999999999999999x", v), IntScan::kMalformed);
  EXPECT_EQ(scanInt("", v), IntScan::kMalformed);
  EXPECT_EQ(scanInt("-", v), IntScan::kMalformed);
  EXPECT_EQ(scanInt("1-", v), IntScan::kMalformed);
}

// ---- WCNF formats --------------------------------------------------------

TEST(FastParse, WcnfOldFormatSplitsOnTop) {
  const WcnfFormula w =
      parseDimacsWcnf("p wcnf 3 3 10\n10 1 2 0\n4 -1 0\n1 3 0\n");
  EXPECT_EQ(w.numHard(), 1);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.soft()[0].weight, 4);
}

TEST(FastParse, Wcnf2022HLineFormat) {
  const WcnfFormula w = parseDimacsWcnf(
      "c 2022 format\nh 1 2 0\n3 -1 0\nh -2 3 0\n1 -3 0\n");
  EXPECT_EQ(w.numHard(), 2);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.soft()[0].weight, 3);
  EXPECT_EQ(w.soft()[1].weight, 1);
  EXPECT_THROW(parseDimacsWcnf("h 1 0\n0 2 0\n"), DimacsError);  // w == 0
}

TEST(FastParse, WcnfSoftWeightsMustSumBelowInt64Max) {
  // Two softs just under INT64_MAX each: their sum overflows, so both
  // formats reject them instead of handing the engines a negative
  // totalSoftWeight().
  EXPECT_THROW(parseDimacsWcnf("p wcnf 1 2 9223372036854775807\n"
                               "9223372036854775806 1 0\n"
                               "9223372036854775806 -1 0\n"),
               DimacsError);
  EXPECT_THROW(parseDimacsWcnf("9223372036854775806 1 0\n"
                               "9223372036854775806 -1 0\n"),
               DimacsError);
  // The bound is exact: a total of INT64_MAX - 1 leaves top representable,
  // INT64_MAX does not. Hard clauses do not count.
  const WcnfFormula w = parseDimacsWcnf(
      "h 1 0\n9223372036854775805 1 0\n1 -1 0\n");
  EXPECT_EQ(w.totalSoftWeight(), std::numeric_limits<Weight>::max() - 1);
  EXPECT_THROW(parseDimacsWcnf("9223372036854775806 1 0\n1 -1 0\n"),
               DimacsError);
  const WcnfFormula old = parseDimacsWcnf(
      "p wcnf 1 3 9223372036854775807\n9223372036854775807 1 0\n"
      "9223372036854775806 1 0\n");
  EXPECT_EQ(old.numHard(), 1);
  EXPECT_EQ(old.totalSoftWeight(), std::numeric_limits<Weight>::max() - 1);
}

TEST(FastParse, WcnfHugeTopTakesSlowWeightPath) {
  // 11-digit weights overflow the quick scanner's 9-digit fast path and
  // must fall back to readInt with identical values.
  const WcnfFormula w = parseDimacsWcnf(
      "p wcnf 2 2 99999999999\n99999999999 1 0\n12345678901 2 0\n");
  EXPECT_EQ(w.numHard(), 1);
  ASSERT_EQ(w.numSoft(), 1);
  EXPECT_EQ(w.soft()[0].weight, 12345678901ll);
}

// ---- InputBuffer: mmap, fallback, moves ----------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& text)
      : path_((std::filesystem::temp_directory_path() /
               ("fastparse_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++)))
                  .string()) {
    std::ofstream out(path_, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(FastParse, MmapAndFallbackAgree) {
  BigFileParams p;
  p.target_bytes = 60000;
  p.vars = 120;
  const std::string text = makeBigCnfText(p);
  const TempFile file(text);

  const InputBuffer mapped = InputBuffer::fromFile(file.path());
  EXPECT_TRUE(mapped.mapped());
  std::ifstream in(file.path(), std::ios::binary);
  const InputBuffer slurped = InputBuffer::fromStream(in);
  EXPECT_FALSE(slurped.mapped());

  expectSameCnf(fastParseDimacsCnf(mapped), fastParseDimacsCnf(slurped));
  expectSameCnf(loadDimacsCnf(file.path()), parseDimacsCnf(text));
}

TEST(FastParse, InputBufferMoveKeepsSsoStringsValid) {
  // Small owned strings live in the SSO buffer, so a move relocates the
  // bytes; the view must be re-derived, not copied.
  InputBuffer a = InputBuffer::fromString("p cnf 1 1\n1 0\n");
  InputBuffer b = std::move(a);
  InputBuffer c;
  c = std::move(b);
  const CnfFormula f = fastParseDimacsCnf(c);
  EXPECT_EQ(f.numClauses(), 1);
}

TEST(FastParse, MissingFileThrows) {
  EXPECT_THROW(loadDimacsCnf("/nonexistent/definitely_missing.cnf"),
               DimacsError);
}

// ---- Direct buffer-to-solver bulk load -----------------------------------

TEST(FastParse, FastLoadIntoSolverMatchesFormulaLoad) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Ratio sweeps from satisfiable to over-constrained, so both solve
    // outcomes are exercised.
    RandomCnfParams p;
    p.numVars = 20;
    p.numClauses = 50 + static_cast<int>(seed) * 25;
    p.seed = seed;
    const CnfFormula f = randomKSat(p);
    const std::string text = toDimacsString(f);

    Solver viaFormula;
    while (viaFormula.numVars() < f.numVars()) {
      static_cast<void>(viaFormula.newVar());
    }
    bool okA = true;
    for (const Clause& c : f.clauses()) okA = okA && viaFormula.addClause(c);

    Solver direct;
    const bool okB = fastLoadDimacsCnfInto(
        InputBuffer::borrow(text.data(), text.size()), direct);

    EXPECT_EQ(direct.numVars(), viaFormula.numVars());
    EXPECT_EQ(viaFormula.okay(), okB);
    if (okA && okB) {
      EXPECT_EQ(viaFormula.solve(), direct.solve());
    }
  }
}

}  // namespace
}  // namespace msu
