/// Tests of the parallel portfolio subsystem: the shared clause pool's
/// endpoint semantics (cursors, self-import exclusion, dedup), the
/// solver's export filter (nothing above the shared variable prefix —
/// in particular no scope-tagged clause — ever leaves a worker), budget
/// interruption, single-thread determinism, and answer agreement
/// between the portfolio and sequential engines on fuzzed WCNFs.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <type_traits>

#include "cnf/oracle.h"
#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "par/clause_pool.h"
#include "par/portfolio.h"
#include "sat/solver.h"

namespace msu {
namespace {

// ScopeHandle is a deliberate type wall: literals must not silently
// become scopes or vice versa.
static_assert(!std::is_convertible_v<Lit, ScopeHandle>);
static_assert(!std::is_convertible_v<ScopeHandle, Lit>);

std::vector<Lit> clauseOf(std::initializer_list<int> dimacs) {
  std::vector<Lit> out;
  for (int d : dimacs) out.push_back(Lit::fromDimacs(d));
  return out;
}

TEST(SharedClausePool, EndpointCursorsAndSelfExclusion) {
  SharedClausePool pool(3, 10);
  const std::vector<Lit> c1 = clauseOf({1, -2});
  const std::vector<Lit> c2 = clauseOf({3, 4, -5});
  EXPECT_TRUE(pool.endpoint(0)->exportClause(c1, 2));
  EXPECT_TRUE(pool.endpoint(1)->exportClause(c2, 3));

  const auto drain = [&](int w) {
    std::vector<std::vector<Lit>> got;
    pool.endpoint(w)->importClauses(
        [&](std::span<const Lit> lits) {
          got.emplace_back(lits.begin(), lits.end());
        },
        /*maxClauses=*/-1);
    return got;
  };

  // Worker 0 sees only worker 1's clause; worker 2 sees both.
  const auto got0 = drain(0);
  ASSERT_EQ(got0.size(), 1u);
  EXPECT_EQ(got0[0], c2);
  const auto got2 = drain(2);
  ASSERT_EQ(got2.size(), 2u);
  EXPECT_EQ(got2[0], c1);
  EXPECT_EQ(got2[1], c2);

  // Cursors advance: a second drain is empty until new clauses arrive,
  // and the hasPending hint agrees.
  EXPECT_TRUE(drain(0).empty());
  EXPECT_FALSE(pool.endpoint(0)->hasPending());
  EXPECT_TRUE(drain(2).empty());
  EXPECT_TRUE(pool.endpoint(2)->exportClause(clauseOf({6}), 1));
  EXPECT_TRUE(pool.endpoint(0)->hasPending());
  const auto again0 = drain(0);
  ASSERT_EQ(again0.size(), 1u);
  EXPECT_EQ(again0[0], clauseOf({6}));
}

TEST(SharedClausePool, ImportBudgetCapsADrainAndTheRestStaysQueued) {
  SharedClausePool pool(2, 10);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(pool.endpoint(0)->exportClause(clauseOf({i}), 1));
  }
  int got = 0;
  const int scanned = pool.endpoint(1)->importClauses(
      [&](std::span<const Lit>) { ++got; }, /*maxClauses=*/2);
  EXPECT_EQ(got, 2);
  EXPECT_EQ(scanned, 2);
  EXPECT_TRUE(pool.endpoint(1)->hasPending());
  got = 0;
  pool.endpoint(1)->importClauses([&](std::span<const Lit>) { ++got; },
                                  /*maxClauses=*/-1);
  EXPECT_EQ(got, 3);  // remainder delivered, nothing lost
  EXPECT_FALSE(pool.endpoint(1)->hasPending());
}

TEST(SharedClausePool, DeduplicatesPerEndpointAcrossOrders) {
  SharedClausePool pool(2, 10);
  EXPECT_TRUE(pool.endpoint(0)->exportClause(clauseOf({1, 2, 3}), 3));
  // Same clause, different literal order, different producer: the
  // lock-free store keeps both publications (dedup is per endpoint,
  // not global), but no endpoint ever *delivers* a clause twice.
  EXPECT_TRUE(pool.endpoint(1)->exportClause(clauseOf({3, 1, 2}), 3));
  EXPECT_EQ(pool.numClauses(), 2);
  // Worker 1 already knows the clause (it published it): worker 0's
  // copy is scanned but skipped as an endpoint-duplicate.
  int seen = 0;
  const int scanned = pool.endpoint(1)->importClauses(
      [&](std::span<const Lit>) { ++seen; }, /*maxClauses=*/-1);
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(scanned, 1);
  EXPECT_EQ(pool.numDuplicates(), 1);
  // Worker 1 re-exporting its own clause is dropped at the endpoint.
  EXPECT_FALSE(pool.endpoint(1)->exportClause(clauseOf({1, 2, 3}), 3));
  EXPECT_EQ(pool.numClauses(), 2);
  EXPECT_EQ(pool.numDuplicates(), 2);
}

/// Capturing exchange for export-filter tests.
class CapturingShare final : public ClauseShare {
 public:
  bool exportClause(std::span<const Lit> lits, int glue) override {
    exported.emplace_back(lits.begin(), lits.end());
    glues.push_back(glue);
    return true;
  }
  int importClauses(const std::function<void(std::span<const Lit>)>& consume,
                    int /*maxClauses*/) override {
    const int scanned = static_cast<int>(pending.size());
    for (const auto& c : pending) consume(c);
    pending.clear();
    return scanned;
  }
  [[nodiscard]] bool hasPending() const override { return !pending.empty(); }

  std::vector<std::vector<Lit>> exported;
  std::vector<int> glues;
  std::vector<std::vector<Lit>> pending;
};

TEST(ClauseSharing, ExportsStayBelowSharedPrefixEvenWithScopes) {
  // Unsatisfiable core problem (php) plus a scoped cardinality
  // constraint over the first variables: the solver learns clauses
  // touching scope auxiliaries and the activator, but everything it
  // exports must lie inside the original-variable prefix — no
  // activator-tagged scope variable ever leaks into the pool.
  const CnfFormula php = pigeonhole(5, 4);
  CapturingShare share;
  Solver::Options so;
  so.share = &share;
  so.share_num_vars = php.numVars();
  Solver s(so);
  SolverSink sink(s);
  while (s.numVars() < php.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : php.clauses()) ASSERT_TRUE(s.addClause(c));

  std::vector<Lit> firstVars;
  for (Var v = 0; v < 6; ++v) firstVars.push_back(posLit(v));
  const ScopeHandle sc = sink.beginScope();
  encodeAtMost(sink, firstVars, 2, CardEncoding::Bdd);
  sink.endScope(sc);

  EXPECT_EQ(s.solve(), lbool::False);
  EXPECT_GT(s.stats().shared_exported, 0);
  EXPECT_EQ(s.stats().shared_exported,
            static_cast<std::int64_t>(share.exported.size()));
  for (const auto& clause : share.exported) {
    EXPECT_LE(static_cast<int>(clause.size()), Solver::kShareMaxSize);
    for (const Lit p : clause) {
      EXPECT_LT(p.var(), php.numVars())
          << "exported clause leaked a non-original variable";
    }
  }
}

TEST(ClauseSharing, ImportsAttachAtRestartBoundaries) {
  // A solvable instance plus a pre-loaded foreign unit: the import must
  // be attached before search and constrain the model.
  CapturingShare share;
  Solver::Options so;
  so.share = &share;
  so.share_num_vars = 3;
  Solver s(so);
  for (int i = 0; i < 3; ++i) static_cast<void>(s.newVar());
  ASSERT_TRUE(s.addClause({posLit(0), posLit(1)}));
  share.pending.push_back(clauseOf({-1}));        // unit ~x0
  share.pending.push_back(clauseOf({-2, 3}));     // binary
  share.pending.push_back(clauseOf({1, 2, 3}));   // long (satisfied later)
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_GE(s.stats().shared_imported, 2);
  EXPECT_EQ(s.modelValue(posLit(0)), lbool::False);  // unit enforced
  EXPECT_EQ(s.modelValue(posLit(1)), lbool::True);
}

TEST(ClauseSharing, BudgetInterruptStopsTheSolver) {
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
  EXPECT_EQ(ra.satStats.shared_exported, 0);
  EXPECT_EQ(ra.satStats.shared_imported, 0);

  // And the 1-thread portfolio is the base engine, bit for bit.
  auto base = makeSolver("msu4-v2", MaxSatOptions{});
  const MaxSatResult rc = base->solve(w);
  EXPECT_EQ(rc.cost, ra.cost);
  EXPECT_EQ(rc.satStats.conflicts, ra.satStats.conflicts);
  EXPECT_EQ(rc.satStats.decisions, ra.satStats.decisions);
}

TEST(Portfolio, FuzzAgreesWithSequentialOptimum) {
  // Random WCNFs (unweighted and weighted): the racing portfolio with
  // clause sharing must report the same optimum as the exhaustive
  // oracle, regardless of which worker wins, both for the default
  // engine cycle and for the linear searches (pbo keeps its bounds in
  // scopes, so it shares too). The cross-scope checker runs inside
  // every worker to police the scope contract under load.
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
}

TEST(Portfolio, HardUnsatIsDetected) {
  // Unsatisfiable hards: every engine must agree, the portfolio
  // reports UnsatisfiableHard.
  const CnfFormula php = pigeonhole(5, 4);
  WcnfFormula w(php.numVars());
  for (const Clause& c : php.clauses()) w.addHard(c);
  w.addSoft({posLit(0)}, 1);
  PortfolioOptions po;
  po.threads = 3;
  PortfolioSolver portfolio(po);
  const MaxSatResult r = portfolio.solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard);
}

TEST(Portfolio, SharingMovesClausesUnderContention) {
  // A hard unsatisfiable pigeonhole keeps every worker's conflicts
  // inside the original-variable prefix (soft-clause conflicts involve
  // selectors, which never export): the summed stats must show traffic
  // through the pool.
  const CnfFormula php = pigeonhole(6, 5);
  WcnfFormula w(php.numVars());
  for (const Clause& c : php.clauses()) w.addHard(c);
  w.addSoft({posLit(0)}, 1);
  PortfolioOptions po;
  po.threads = 3;
  po.engines = {"msu4-v2", "msu3", "linear"};  // all sharing-safe
  PortfolioSolver portfolio(po);
  const MaxSatResult r = portfolio.solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard);
  EXPECT_GT(r.satStats.shared_exported, 0);
}

TEST(ClauseSharing, TwoWorkerPoolRoundTripsExportAndImport) {
  // Regression for the dead-sharing-path finding (BENCH_portfolio.json
  // once showed shared_exported == 0 in every record): the bench's
  // all-soft workloads have no hard clauses, so nothing was ever
  // legally exportable — the pipeline itself must round-trip. This
  // crafts the 2-worker exchange deterministically: worker 0 refutes a
  // hard instance and exports prefix clauses into the pool; worker 1
  // then solves the same instance and must import them.
  const CnfFormula php = pigeonhole(6, 5);
  SharedClausePool pool(2, php.numVars());

  const auto solveWorker = [&](int w) {
    Solver::Options so;
    so.share = pool.endpoint(w);
    so.share_num_vars = php.numVars();
    Solver s(so);
    while (s.numVars() < php.numVars()) static_cast<void>(s.newVar());
    for (const Clause& c : php.clauses()) EXPECT_TRUE(s.addClause(c));
    EXPECT_EQ(s.solve(), lbool::False);
    return s.stats();
  };

  const SolverStats first = solveWorker(0);
  EXPECT_GT(first.shared_exported, 0);
  EXPECT_EQ(first.shared_imported, 0);  // nothing published yet
  EXPECT_GT(pool.numClauses(), 0);

  const SolverStats second = solveWorker(1);
  EXPECT_GT(second.shared_imported, 0)
      << "worker 1 never imported worker 0's clauses";
}

TEST(Portfolio, TwoWorkersShareOnHardRichInstances) {
  // Threaded end-to-end variant on a *satisfiable-hards* instance of
  // the kind the bench now includes: a below-threshold hard random
  // 3-SAT skeleton carrying a soft 3-clause load. Refutations inside
  // the hard skeleton learn prefix-pure clauses, so exports must flow.
  // Whether a particular 2-worker race shares before the winner
  // finishes is timing-dependent, so the assertion is over a handful of
  // attempts: at least one run must move clauses through the pool.
  const CnfFormula hard = randomKSat(
      {.numVars = 48, .numClauses = 160, .clauseLen = 3, .seed = 12});
  const CnfFormula soft = randomKSat(
      {.numVars = 48, .numClauses = 120, .clauseLen = 3, .seed = 13});
  WcnfFormula w(48);
  for (int i = 0; i < hard.numClauses(); ++i) w.addHard(hard.clause(i));
  for (int i = 0; i < soft.numClauses(); ++i) w.addSoft(soft.clause(i), 1);

  Weight cost = -1;
  std::int64_t exported = 0;
  for (int attempt = 0; attempt < 5 && exported == 0; ++attempt) {
    PortfolioOptions po;
    po.threads = 2;
    PortfolioSolver portfolio(po);
    const MaxSatResult r = portfolio.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    if (cost < 0) cost = r.cost;
    EXPECT_EQ(r.cost, cost);  // attempts agree on the optimum
    exported = r.satStats.shared_exported;
  }
  EXPECT_GT(exported, 0);
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
