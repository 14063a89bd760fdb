/// Tests of the parallel portfolio subsystem: single-thread
/// determinism, answer agreement between the portfolio and sequential
/// engines on fuzzed and hard-rich WCNFs, hard-UNSAT detection, and the
/// scope checker that runs inside every worker.

#include <gtest/gtest.h>

#include <random>
#include <type_traits>

#include "cnf/oracle.h"
#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "par/portfolio.h"
#include "sat/solver.h"

namespace msu {
namespace {

// ScopeHandle is a deliberate type wall: literals must not silently
// become scopes or vice versa.
static_assert(!std::is_convertible_v<Lit, ScopeHandle>);
static_assert(!std::is_convertible_v<ScopeHandle, Lit>);

TEST(CrossScopeChecker, AbortsOnReferenceToClosedScope) {
  const auto misuse = [] {
    Solver::Options so;
    so.check_cross_scope = true;
    Solver s(so);
    SolverSink sink(s);
    std::vector<Lit> xs;
    for (int i = 0; i < 4; ++i) xs.push_back(posLit(s.newVar()));
    const ScopeHandle sc = sink.beginScope();
    encodeAtMost(sink, xs, 1, CardEncoding::Bdd);
    sink.endScope(sc);
    // The scope's auxiliary variables must not be referenced by later
    // clauses; the checker fails fast naming the owning scope.
    const Var aux = static_cast<Var>(s.numVars() - 1);
    static_cast<void>(s.addClause({posLit(aux), xs[0]}));
  };
  EXPECT_DEATH(misuse(), "cross-scope reference");
}

TEST(CrossScopeChecker, AllowsLayeredScopesOverOlderStructures) {
  // OLL builds totalizers whose inputs are the outputs of *earlier*
  // totalizers (nested soft cardinality). That layering is legitimate —
  // the checker only rejects references to scopes that are neither open
  // nor older — and OLL pins dependencies so the older structure cannot
  // retire from under its dependents.
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(24, 5.4, 2024));
  MaxSatOptions o;
  o.sat.check_cross_scope = true;
  auto oll = makeSolver("oll", o);
  const MaxSatResult r = oll->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  auto reference = makeSolver("msu4-v2", MaxSatOptions{});
  EXPECT_EQ(r.cost, reference->solve(w).cost);
}

TEST(Portfolio, SingleThreadIsDeterministicAndMatchesBaseEngine) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(26, 5.2, 421));
  PortfolioOptions po;
  po.threads = 1;
  PortfolioSolver a(po);
  PortfolioSolver b(po);
  const MaxSatResult ra = a.solve(w);
  const MaxSatResult rb = b.solve(w);
  ASSERT_EQ(ra.status, MaxSatStatus::Optimum);
  ASSERT_EQ(rb.status, MaxSatStatus::Optimum);
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(ra.satCalls, rb.satCalls);
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.satStats.conflicts, rb.satStats.conflicts);
  EXPECT_EQ(ra.satStats.decisions, rb.satStats.decisions);
  EXPECT_EQ(ra.satStats.propagations, rb.satStats.propagations);

  // And the 1-thread portfolio is the base engine, bit for bit.
  auto base = makeSolver("msu4-v2", MaxSatOptions{});
  const MaxSatResult rc = base->solve(w);
  EXPECT_EQ(rc.cost, ra.cost);
  EXPECT_EQ(rc.satStats.conflicts, ra.satStats.conflicts);
  EXPECT_EQ(rc.satStats.decisions, ra.satStats.decisions);
}

TEST(Portfolio, FuzzAgreesWithSequentialOptimum) {
  // Random WCNFs (unweighted and weighted): the racing portfolio must
  // report the same optimum as the exhaustive oracle, regardless of
  // which worker wins, both for the default engine cycle and for the
  // linear searches. The cross-scope checker runs inside every worker
  // to police the scope contract under load.
  std::mt19937_64 rng(7);
  for (int round = 0; round < 6; ++round) {
    const CnfFormula base =
        randomKSat({.numVars = 9,
                    .numClauses = 40,
                    .clauseLen = 3,
                    .seed = 900 + static_cast<std::uint64_t>(round)});
    WcnfFormula w(base.numVars());
    const bool weighted = (round % 2) == 1;
    for (int i = 0; i < base.numClauses(); ++i) {
      if (i % 5 == 0) {
        w.addHard(base.clause(i));
      } else {
        w.addSoft(base.clause(i),
                  weighted ? static_cast<Weight>(1 + rng() % 4) : 1);
      }
    }
    const OracleResult truth = oracleMaxSat(w);
    if (!truth.optimumCost.has_value()) continue;  // hards unsat: skip

    for (const std::vector<std::string>& engines :
         {std::vector<std::string>{},
          std::vector<std::string>{"pbo", "linear", "msu1", "msu4-v1"}}) {
      PortfolioOptions po;
      po.threads = 4;
      po.engines = engines;
      po.seed = static_cast<unsigned>(round + 1);
      po.base.sat.check_cross_scope = true;
      PortfolioSolver portfolio(po);
      const MaxSatResult r = portfolio.solve(w);
      const std::string label = "round " + std::to_string(round) + " " +
                                portfolio.workerDescriptions().front();
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << label;
      EXPECT_EQ(r.cost, *truth.optimumCost) << label;
      const auto modelCost = w.cost(r.model);
      ASSERT_TRUE(modelCost.has_value()) << label;
      EXPECT_EQ(*modelCost, r.cost) << label;
    }
  }

  // A hard-rich instance, too large for the exhaustive oracle: a
  // below-threshold (satisfiable) hard random 3-SAT skeleton carrying a
  // soft 3-clause load (bench_portfolio's mix3sat-48). Every thread
  // count must report sequential msu4-v2's optimum.
  const CnfFormula hard = randomKSat(
      {.numVars = 48, .numClauses = 160, .clauseLen = 3, .seed = 12});
  const CnfFormula soft = randomKSat(
      {.numVars = 48, .numClauses = 120, .clauseLen = 3, .seed = 13});
  WcnfFormula w(48);
  for (int i = 0; i < hard.numClauses(); ++i) w.addHard(hard.clause(i));
  for (int i = 0; i < soft.numClauses(); ++i) w.addSoft(soft.clause(i), 1);
  const MaxSatResult sequential =
      makeSolver("msu4-v2", MaxSatOptions{})->solve(w);
  ASSERT_EQ(sequential.status, MaxSatStatus::Optimum);
  for (const int threads : {2, 4}) {
    PortfolioOptions po;
    po.threads = threads;
    PortfolioSolver portfolio(po);
    const MaxSatResult r = portfolio.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << threads << " workers";
    EXPECT_EQ(r.cost, sequential.cost) << threads << " workers";
    const auto modelCost = w.cost(r.model);
    ASSERT_TRUE(modelCost.has_value()) << threads << " workers";
    EXPECT_EQ(*modelCost, r.cost) << threads << " workers";
  }
}

TEST(Portfolio, HardUnsatIsDetected) {
  // Unsatisfiable hards: every engine must agree, the portfolio
  // reports UnsatisfiableHard — on the default cycle and on three
  // CDCL engines that each have to refute the pigeonhole themselves.
  struct Case {
    int pigeons;
    int holes;
    std::vector<std::string> engines;
  };
  const Case cases[] = {{5, 4, {}}, {6, 5, {"msu4-v2", "msu3", "linear"}}};
  for (const Case& c : cases) {
    const CnfFormula php = pigeonhole(c.pigeons, c.holes);
    WcnfFormula w(php.numVars());
    for (const Clause& clause : php.clauses()) w.addHard(clause);
    w.addSoft({posLit(0)}, 1);
    PortfolioOptions po;
    po.threads = 3;
    po.engines = c.engines;
    PortfolioSolver portfolio(po);
    const MaxSatResult r = portfolio.solve(w);
    EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard)
        << "PHP(" << c.pigeons << "," << c.holes << ")";
  }
}

TEST(Portfolio, WorkerDescriptionsAreDeterministic) {
  PortfolioOptions po;
  po.threads = 4;
  po.seed = 3;
  PortfolioSolver a(po);
  PortfolioSolver b(po);
  EXPECT_EQ(a.workerDescriptions(), b.workerDescriptions());
  EXPECT_EQ(a.workerDescriptions().size(), 4u);
  // Worker 0 is the untouched base engine.
  EXPECT_EQ(a.workerDescriptions()[0], "msu4-v2");
}

}  // namespace
}  // namespace msu
