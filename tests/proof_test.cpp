/// Tests for DRUP proof logging and the independent RUP checker:
///  * refutation proofs from plain unsat solves verify end-to-end;
///  * satisfiable solves produce RUP-valid lemma traces (no refutation);
///  * tampered proofs are rejected with the right failing line;
///  * DRUP text round-trips through writer and parser;
///  * proofs survive clause-database reduction (deletions interleaved);
///  * every sequential SAT-based MaxSAT engine leaves a fully RUP-valid
///    trace through its incremental clause additions and retirements.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cnf/oracle.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "proof/checker.h"
#include "proof/drup.h"
#include "random_weighted.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// Solves `cnf` with an attached recorder; returns (status, proof).
std::pair<lbool, InMemoryProof> solveTraced(const CnfFormula& cnf,
                                            Solver::Options satOpts = {}) {
  auto proof = InMemoryProof{};
  satOpts.tracer = &proof;
  Solver solver(satOpts);
  for (Var v = 0; v < cnf.numVars(); ++v) static_cast<void>(solver.newVar());
  for (const Clause& c : cnf.clauses()) {
    if (!solver.addClause(c)) break;
  }
  const lbool st = solver.okay() ? solver.solve() : lbool::False;
  return {st, std::move(proof)};
}

TEST(ProofTest, TrivialUnitConflictYieldsVerifiedRefutation) {
  CnfFormula f(1);
  f.addClause({posLit(0)});
  f.addClause({negLit(0)});
  auto [st, proof] = solveTraced(f);
  EXPECT_EQ(st, lbool::False);
  EXPECT_TRUE(proof.claimsRefutation());
  const ProofCheckResult r = checkProof(proof.lines());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.refutationVerified);
}

TEST(ProofTest, PigeonholeRefutationVerifies) {
  for (int n = 2; n <= 5; ++n) {
    const CnfFormula f = pigeonhole(n + 1, n);
    auto [st, proof] = solveTraced(f);
    ASSERT_EQ(st, lbool::False) << "php " << n;
    const ProofCheckResult r = checkProof(proof.lines());
    EXPECT_TRUE(r.ok) << "php " << n << " bad line " << r.firstBadLine;
    EXPECT_TRUE(r.refutationVerified) << "php " << n;
    EXPECT_GT(r.lemmasChecked, 0) << "php " << n;
  }
}

TEST(ProofTest, RandomUnsatRefutationsVerify) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CnfFormula f = randomUnsat3Sat(20, 6.5, seed);
    auto [st, proof] = solveTraced(f);
    ASSERT_EQ(st, lbool::False) << "seed " << seed;
    const ProofCheckResult r = checkProof(proof.lines());
    EXPECT_TRUE(r.ok) << "seed " << seed << " line " << r.firstBadLine;
    EXPECT_TRUE(r.refutationVerified) << "seed " << seed;
  }
}

TEST(ProofTest, SatisfiableSolveLeavesValidLemmasNoRefutation) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CnfFormula f =
        randomKSat({.numVars = 25, .numClauses = 80, .clauseLen = 3,
                    .seed = seed});
    auto [st, proof] = solveTraced(f);
    if (st != lbool::True) continue;  // skip rare unsat draws
    const ProofCheckResult r = checkProof(proof.lines());
    EXPECT_TRUE(r.ok) << "seed " << seed;
    EXPECT_FALSE(r.refutationVerified) << "seed " << seed;
  }
}

TEST(ProofTest, DeletionsFromDbReductionDoNotBreakTheProof) {
  // Force clause-DB reductions with a tiny learnt-size factor.
  Solver::Options opts;
  opts.learntsize_factor = 0.01;
  opts.learntsize_inc = 1.01;
  const CnfFormula f = randomUnsat3Sat(30, 6.0, 7);
  auto [st, proof] = solveTraced(f, opts);
  ASSERT_EQ(st, lbool::False);
  bool sawDeletion = false;
  for (const ProofLine& l : proof.lines()) {
    sawDeletion = sawDeletion || l.kind == ProofLine::Kind::Delete;
  }
  EXPECT_TRUE(sawDeletion);
  const ProofCheckResult r = checkProof(proof.lines());
  EXPECT_TRUE(r.ok) << "line " << r.firstBadLine;
  EXPECT_TRUE(r.refutationVerified);
}

TEST(ProofTest, TamperedLemmaIsRejected) {
  const CnfFormula f = pigeonhole(4, 3);
  auto [st, proof] = solveTraced(f);
  ASSERT_EQ(st, lbool::False);
  // Corrupt the first non-trivial lemma: flip its first literal.
  std::vector<ProofLine> lines = proof.lines();
  bool corrupted = false;
  for (ProofLine& l : lines) {
    if (l.kind == ProofLine::Kind::Lemma && l.lits.size() >= 2) {
      // Replace the clause with a non-implied one over fresh polarity.
      l.lits = {l.lits[0], ~l.lits[1]};
      std::swap(l.lits[0], l.lits[1]);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const ProofCheckResult r = checkProof(lines);
  // Either the corrupted clause happens to still be RUP (possible) or
  // the checker flags exactly a lemma line.
  if (!r.ok) {
    ASSERT_GE(r.firstBadLine, 0);
    EXPECT_EQ(lines[static_cast<std::size_t>(r.firstBadLine)].kind,
              ProofLine::Kind::Lemma);
  }
}

TEST(ProofTest, ForgedRefutationOfSatisfiableFormulaFails) {
  // A directly-claimed empty clause on a satisfiable database must fail.
  std::vector<ProofLine> lines;
  lines.push_back({ProofLine::Kind::Axiom, {posLit(0), posLit(1)}});
  lines.push_back({ProofLine::Kind::Lemma, {}});
  const ProofCheckResult r = checkProof(lines);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.firstBadLine, 1);
}

TEST(ProofTest, DrupTextRoundTrips) {
  const CnfFormula f = randomUnsat3Sat(15, 6.5, 11);
  auto [st, proof] = solveTraced(f);
  ASSERT_EQ(st, lbool::False);

  std::ostringstream text;
  writeDrup(text, proof.lines());
  std::istringstream in(text.str());
  const auto parsed = parseDrup(in);
  ASSERT_TRUE(parsed.has_value());

  // Checking the parsed (axiom-free) proof against the CNF must agree
  // with checking the in-memory proof.
  const ProofCheckResult viaText = checkProof(f, *parsed);
  const ProofCheckResult viaMemory = checkProof(proof.lines());
  EXPECT_TRUE(viaText.ok);
  EXPECT_EQ(viaText.refutationVerified, viaMemory.refutationVerified);
  EXPECT_TRUE(viaText.refutationVerified);
}

TEST(ProofTest, ParserRejectsMalformedInput) {
  const auto check = [](const char* text) {
    std::istringstream in(text);
    return parseDrup(in).has_value();
  };
  EXPECT_TRUE(check(""));
  EXPECT_TRUE(check("1 -2 0\nd 1 -2 0\n"));
  EXPECT_FALSE(check("1 -2"));        // missing terminator
  EXPECT_FALSE(check("1 d 2 0"));     // 'd' mid-clause
  EXPECT_FALSE(check("1 two 0"));     // not a number
  EXPECT_FALSE(check("d"));           // dangling deletion
}

TEST(ProofTest, DrupWriterStreamsWhileSolving) {
  const CnfFormula f = pigeonhole(4, 3);
  std::ostringstream out;
  DrupWriter writer(out);
  Solver::Options opts;
  opts.tracer = &writer;
  Solver solver(opts);
  for (Var v = 0; v < f.numVars(); ++v) static_cast<void>(solver.newVar());
  for (const Clause& c : f.clauses()) {
    if (!solver.addClause(c)) break;
  }
  ASSERT_EQ(solver.solve(), lbool::False);
  std::istringstream in(out.str());
  const auto parsed = parseDrup(in);
  ASSERT_TRUE(parsed.has_value());
  const ProofCheckResult r = checkProof(f, *parsed);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.refutationVerified);
}

TEST(ProofTest, EveryEngineLeavesRupValidTrace) {
  // The tracer rides along each sequential SAT-based engine's whole
  // search: incremental clause additions, bound re-encodes and the
  // deletions that scope retirement records. A trace need not end in a
  // refutation (the working formula is satisfiable once enough
  // blocking variables are free), but every lemma must check and the
  // cost must be the oracle's.
  std::vector<WcnfFormula> instances;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    instances.push_back(WcnfFormula::allSoft(randomUnsat3Sat(12, 6.0, seed)));
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    instances.push_back(randomWeighted(seed, 20));
  }
  std::int64_t deletions = 0;
  for (const std::string& name : solverNames()) {
    if (name == "maxsatz" || name.starts_with("portfolio")) continue;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      SCOPED_TRACE(testing::Message() << name << " on instance " << i);
      const WcnfFormula& w = instances[i];
      InMemoryProof proof;
      MaxSatOptions opts;
      opts.sat.tracer = &proof;
      const MaxSatResult res = makeSolver(name, opts)->solve(w);
      const ProofCheckResult r = checkProof(proof.lines());
      EXPECT_TRUE(r.ok) << "line " << r.firstBadLine;
      for (const ProofLine& l : proof.lines()) {
        deletions += l.kind == ProofLine::Kind::Delete ? 1 : 0;
      }
      const OracleResult oracle = oracleMaxSat(w);
      if (oracle.optimumCost) {
        ASSERT_EQ(res.status, MaxSatStatus::Optimum);
        EXPECT_EQ(res.cost, *oracle.optimumCost);
      } else {
        EXPECT_EQ(res.status, MaxSatStatus::UnsatisfiableHard);
      }
    }
  }
  EXPECT_GT(deletions, 0);  // retirement ran under the tracer
}

TEST(RupCheckerTest, IncrementalApiBasics) {
  RupChecker checker;
  checker.ensureVars(3);
  checker.addAxiom(std::vector<Lit>{posLit(0), posLit(1)});
  checker.addAxiom(std::vector<Lit>{posLit(0), negLit(1)});
  // (x0) follows by resolution and is RUP.
  EXPECT_TRUE(checker.addLemma(std::vector<Lit>{posLit(0)}));
  // (x2) is unrelated: not RUP.
  EXPECT_FALSE(checker.addLemma(std::vector<Lit>{posLit(2)}));
  EXPECT_FALSE(checker.provedUnsat());
  checker.addAxiom(std::vector<Lit>{negLit(0)});
  EXPECT_TRUE(checker.provedUnsat());
  // Anything goes once refuted.
  EXPECT_TRUE(checker.addLemma(std::vector<Lit>{posLit(2)}));
}

TEST(RupCheckerTest, DeletionRemovesExactlyOneInstance) {
  RupChecker checker;
  checker.ensureVars(2);
  checker.addAxiom(std::vector<Lit>{posLit(0), posLit(1)});
  checker.addAxiom(std::vector<Lit>{posLit(0), posLit(1)});
  checker.addAxiom(std::vector<Lit>{negLit(1)});
  // With both copies present (x0) is RUP; delete one: still RUP via the
  // second copy; delete both: no longer RUP.
  checker.deleteClause(std::vector<Lit>{posLit(0), posLit(1)});
  EXPECT_TRUE(checker.addLemma(std::vector<Lit>{posLit(0)}));
}

}  // namespace
}  // namespace msu
