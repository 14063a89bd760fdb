/// Differential fuzzing beyond the oracle's reach: at sizes the
/// exhaustive oracle cannot check, correctness is established by
/// agreement — every complete engine must report the same optimum on the
/// same instance, proofs must replay, and tampered artifacts must be
/// rejected.

#include <gtest/gtest.h>

#include <random>

#include "core/bmo.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "mus/mus.h"
#include "proof/checker.h"
#include "proof/drup.h"
#include "sat/solver.h"

namespace msu {
namespace {

WcnfFormula mediumPartial(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int numVars = 16 + static_cast<int>(rng() % 8);
  WcnfFormula w(numVars);
  const int numHard = 6 + static_cast<int>(rng() % 10);
  const int numSoft = 40 + static_cast<int>(rng() % 30);
  auto clause = [&](int len) {
    Clause c;
    for (int k = 0; k < len; ++k) {
      c.push_back(mkLit(static_cast<Var>(rng() % numVars), (rng() & 1) != 0));
    }
    return c;
  };
  for (int i = 0; i < numHard; ++i) w.addHard(clause(3));
  for (int i = 0; i < numSoft; ++i) w.addSoft(clause(2), 1);
  return w;
}

TEST(FuzzCrossEngine, MediumPartialInstancesAllEnginesAgree) {
  const std::vector<std::string> engines = solverNames();
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const WcnfFormula w = mediumPartial(seed * 1313);
    Weight expected = -1;
    std::string first;
    for (const std::string& name : engines) {
      auto solver = makeSolver(name);
      ASSERT_NE(solver, nullptr) << name;
      const MaxSatResult r = solver->solve(w);
      if (r.status == MaxSatStatus::UnsatisfiableHard) {
        expected = -2;
        break;  // all engines must agree; checked via the next loop
      }
      ASSERT_EQ(r.status, MaxSatStatus::Optimum)
          << name << " seed " << seed;
      if (expected < 0) {
        expected = r.cost;
        first = name;
      } else {
        EXPECT_EQ(r.cost, expected)
            << name << " vs " << first << " seed " << seed;
      }
      // The model must achieve the cost it claims.
      const std::optional<Weight> c = w.cost(r.model);
      ASSERT_TRUE(c.has_value()) << name << " seed " << seed;
      EXPECT_EQ(*c, r.cost) << name << " seed " << seed;
    }
    if (expected == -2) {
      for (const std::string& name : engines) {
        auto solver = makeSolver(name);
        EXPECT_EQ(solver->solve(w).status, MaxSatStatus::UnsatisfiableHard)
            << name << " seed " << seed;
      }
    }
  }
}

TEST(FuzzProof, RandomTamperingIsCaughtOrHarmless) {
  std::mt19937_64 rng(99);
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const CnfFormula f = randomUnsat3Sat(18, 6.5, seed);
    InMemoryProof proof;
    Solver::Options opts;
    opts.tracer = &proof;
    Solver solver(opts);
    for (Var v = 0; v < f.numVars(); ++v) {
      static_cast<void>(solver.newVar());
    }
    for (const Clause& c : f.clauses()) {
      if (!solver.addClause(c)) break;
    }
    if ((solver.okay() ? solver.solve() : lbool::False) != lbool::False) {
      continue;
    }
    ASSERT_TRUE(checkProof(proof.lines()).ok) << "seed " << seed;

    // Tamper: flip one literal of one random non-empty lemma.
    std::vector<ProofLine> lines = proof.lines();
    std::vector<std::size_t> lemmaIdx;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].kind == ProofLine::Kind::Lemma && !lines[i].lits.empty()) {
        lemmaIdx.push_back(i);
      }
    }
    ASSERT_FALSE(lemmaIdx.empty());
    ProofLine& victim = lines[lemmaIdx[rng() % lemmaIdx.size()]];
    Lit& lit = victim.lits[rng() % victim.lits.size()];
    lit = ~lit;

    const ProofCheckResult r = checkProof(lines);
    // A flipped lemma may coincidentally still be RUP; if rejected, the
    // reported line must be a lemma.
    if (!r.ok) {
      ++rejected;
      EXPECT_EQ(lines[static_cast<std::size_t>(r.firstBadLine)].kind,
                ProofLine::Kind::Lemma)
          << "seed " << seed;
    }
  }
  // The checker must catch a healthy share of corruptions.
  EXPECT_GT(rejected, 3);
}

TEST(FuzzWeighted, LadderInstancesThreeEnginesAgree) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    WcnfFormula w(12);
    const Weight ladder[] = {1, 50, 5000};
    for (int i = 0; i < 30; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 12), (rng() & 1) != 0));
      }
      w.addSoft(c, ladder[rng() % 3]);
    }
    BmoSolver bmo;
    auto oll = makeSolver("oll");
    auto lin = makeSolver("linear");
    const MaxSatResult a = bmo.solve(w);
    const MaxSatResult b = oll->solve(w);
    const MaxSatResult c = lin->solve(w);
    ASSERT_EQ(a.status, MaxSatStatus::Optimum) << "round " << round;
    ASSERT_EQ(b.status, MaxSatStatus::Optimum) << "round " << round;
    ASSERT_EQ(c.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(a.cost, b.cost) << "round " << round;
    EXPECT_EQ(b.cost, c.cost) << "round " << round;
  }
}

TEST(FuzzMus, ExtractedMusesVerifyAtMediumScale) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const GroupCnf f =
        GroupCnf::perClause(randomUnsat3Sat(20, 6.5, seed * 11));
    const MusResult r = extractMus(f);
    if (!r.minimal) continue;  // satisfiable draw
    // subsetUnsat is CDCL-backed: usable beyond the oracle's range.
    EXPECT_TRUE(subsetUnsat(f, r.groups)) << "seed " << seed;
    // Spot-check minimality: dropping the first and last clause each
    // restores satisfiability (full isMus is quadratic; spot is enough
    // at this scale, the small-scale tests do the exhaustive version).
    for (const std::size_t drop : {std::size_t{0}, r.groups.size() - 1}) {
      std::vector<int> sub;
      for (std::size_t j = 0; j < r.groups.size(); ++j) {
        if (j != drop) sub.push_back(r.groups[j]);
      }
      EXPECT_FALSE(subsetUnsat(f, sub)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace msu
