/// \file maxsat.h
/// \brief Public MaxSAT solver interface shared by every engine in the
///        library: the core-guided family (msu1/msu3/msu4), the
///        SAT-based linear and binary searches (the paper's PBO
///        baseline is a linear-search configuration) and the
///        branch-and-bound baseline.
///
/// ## The oracle-session model
///
/// Every SAT-based engine runs on one OracleSession
/// (core/oracle_session.h): a single incremental CDCL oracle whose
/// clause database persists — learnt clauses included — across the
/// iterations of the search, mirroring the paper's reuse of learnt
/// information between iterations. Cardinality/PB structures the
/// search outgrows are not abandoned inside that database: they live
/// in *encoding scopes* (see sink.h) and are physically retired — the
/// clauses deleted, their auxiliary variables recycled — the moment a
/// re-encode supersedes them. Sorting networks and totalizers are never
/// outgrown: they grow in place, unscoped (core/incremental_atmost.h);
/// a sorter joins each sorted batch of new blocking variables with one
/// layer of direct-merge clauses cut at the asserted bound.
/// `MaxSatResult::satStats` surfaces the lifecycle counters (retired
/// scopes/clauses, reclaimed bytes, recycled variables) alongside the
/// propagation-core counters.

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cnf/wcnf.h"
#include "encodings/cardinality.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "sat/budget.h"
#include "sat/solver.h"
#include "sat/stats.h"

namespace msu {

/// Outcome of a MaxSAT solve.
enum class MaxSatStatus {
  Optimum,            ///< optimum found; `cost` and `model` are valid
  UnsatisfiableHard,  ///< the hard clauses alone are unsatisfiable
  Unknown,            ///< budget exhausted; only the bounds are valid
};

/// Short human-readable status name.
[[nodiscard]] const char* toString(MaxSatStatus st);

/// Result of a MaxSAT solve. Cost = total weight of falsified soft
/// clauses (so "satisfied clauses", the paper's objective, is
/// `numSoft - cost` for unweighted instances).
struct MaxSatResult {
  MaxSatStatus status = MaxSatStatus::Unknown;
  Weight cost = 0;  ///< optimum cost when status == Optimum

  /// Best bounds on the cost established before stopping (always valid;
  /// equal to `cost` on Optimum).
  Weight lowerBound = 0;
  Weight upperBound = 0;

  /// Witnessing assignment over the *original* variables (complete) when
  /// status == Optimum, or the best model found when Unknown with a
  /// finite upper bound.
  Assignment model;

  /// Diagnostics.
  std::int64_t iterations = 0;  ///< main-loop iterations
  std::int64_t coresFound = 0;  ///< unsatisfiable cores extracted
  std::int64_t satCalls = 0;    ///< SAT solver invocations
  SolverStats satStats;         ///< cumulative CDCL statistics

  /// Paper-style objective for unweighted instances.
  [[nodiscard]] Weight numSatisfied(const WcnfFormula& f) const {
    return static_cast<Weight>(f.numSoft()) - cost;
  }
};

/// Options common to the SAT-based MaxSAT engines.
struct MaxSatOptions {
  /// Cooperative budget (wall clock / conflicts); engines return Unknown
  /// with valid bounds when it runs out.
  Budget budget;

  /// Cardinality encoding for the bound constraints. The paper's msu4 v1
  /// is Bdd, v2 is Sorter.
  CardEncoding encoding = CardEncoding::Sorter;

  /// msu4: add the optional "at least one new blocking variable is true"
  /// clause after each core (Algorithm 1, line 19; "optional, but
  /// experiments suggest it is most often useful").
  bool msu4AtLeastOne = true;

  /// Grow sorting networks and totalizers in place across iterations
  /// (new blocking variables are sorted or counted alone and merged
  /// into the existing outputs) instead of re-encoding. The BDD
  /// re-encodes every bound, as does everything when reuse is off: the
  /// superseded structure's scope is retired, its clauses physically
  /// deleted and its auxiliary variables recycled.
  bool reuseEncodings = true;

  /// Rounds of core trimming (re-solve under the core and adopt the
  /// smaller final conflict) before relaxing a core; 0 disables. The
  /// paper notes msu4 depends on the solver "identifying small
  /// unsatisfiable cores" — this is the standard countermeasure.
  int trimCoreRounds = 0;

  /// Tighten the SAT-iteration bound with the model's true cost (weight
  /// of the soft clauses actually falsified) instead of the raw weight
  /// of the blocking variables assigned 1. Always sound; on by default.
  bool tightenWithModelCost = true;

  /// Underlying CDCL parameters.
  Solver::Options sat;

  /// Progress callback, invoked whenever an engine improves a bound:
  /// `(lower, upper)` in cost terms, with `upper` one above the total
  /// soft weight until a first model exists. Engines guarantee both
  /// sequences are monotone (lower non-decreasing, upper non-increasing).
  /// Leave empty for none.
  std::function<void(Weight lower, Weight upper)> onBounds;

  /// Optional live-progress sink (non-owning; must outlive the run).
  /// OracleSession streams conflict/solve-call/memory deltas into it
  /// after every oracle call, so an observer thread (SolveService::
  /// poll(), a UI) can watch a running job without any callback
  /// plumbing. Bounds flow in via onBounds — the SolveService installs
  /// a wrapper that feeds both the sink and any caller callback.
  obs::ProgressSink* progress = nullptr;

  /// Optional metrics registry (non-owning; must outlive the run).
  /// When set, OracleSession observes every oracle call's latency into
  /// the `msu_oracle_solve_us` histogram. Left null (the default) the
  /// sessions take no clock readings at all.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Abstract MaxSAT engine.
class MaxSatSolver {
 public:
  virtual ~MaxSatSolver() = default;

  /// Engine name as used in tables ("msu4-v2", "maxsatz-like", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Solves the instance. Weighted instances are reduced to unweighted
  /// ones by clause duplication where supported; engines document their
  /// limits.
  [[nodiscard]] virtual MaxSatResult solve(const WcnfFormula& formula) = 0;
};

}  // namespace msu
