/// \file share.h
/// \brief The solver-side interface of inter-solver learnt-clause
///        sharing, analogous to ProofTracer: the CDCL engine talks to an
///        abstract exchange, and the parallel portfolio (src/par)
///        provides the concrete sharded pool behind it.
///
/// ## Contract
///
/// A Solver with a ClauseShare attached *exports* learnt clauses that
/// pass its sharing filter (short, low-LBD, and over the shareable
/// variable prefix only — see Solver::Options::share_num_vars) the
/// moment they are learnt, and *imports* foreign clauses in budgeted
/// drains at decision level 0 — at solve entry, at restart boundaries,
/// and (on a conflict cadence, see Solver::kShareImportInterval)
/// at forced level-0 backtrack points inside search — where attaching
/// them is trivially sound for the search state.
///
/// Exported clauses must be logical consequences of the *shared* part
/// of the problem — in the portfolio, the hard clauses of the MaxSAT
/// instance — so that any consumer may attach them as learnt clauses
/// regardless of its own engine state. The solver guarantees this by
/// construction: only clauses whose literals all lie below
/// `share_num_vars` qualify, and the engine layer keeps every
/// non-consequence it adds (selector-augmented softs, bound
/// restrictions, encoding definitions) either guarded by a scope
/// activator or confined to variables above that prefix (see
/// par/clause_pool.h for the full argument). In particular, clauses
/// touching activator-tagged scope variables are never exported, which
/// keeps sharing sound under physical scope retirement.
///
/// Implementations must be safe to call concurrently from the owning
/// solver threads. Each endpoint is driven by exactly one thread (its
/// worker); thread safety concerns only the traffic *between*
/// endpoints, which the portfolio's pool handles with lock-free
/// per-producer segments.

#pragma once

#include <functional>
#include <span>

#include "cnf/literal.h"

namespace msu {

/// Receiver/source of shared learnt clauses. Non-owning; must outlive
/// every solver it is attached to.
class ClauseShare {
 public:
  virtual ~ClauseShare() = default;

  /// Offers a learnt clause (already filtered by the solver) to the
  /// exchange. `glue` is the clause's LBD at learning time. Returns
  /// true iff the clause was published; false when the exchange dropped
  /// it (export segment full, or a duplicate of a clause this endpoint
  /// already published or imported).
  virtual bool exportClause(std::span<const Lit> lits, int glue) = 0;

  /// Streams foreign clauses this endpoint has not delivered yet into
  /// `consume`, up to `maxClauses` of them (negative = no cap); the
  /// rest stay queued for the next drain. Returns the number of foreign
  /// publications *scanned*, including those skipped as duplicates —
  /// the caller's scanned-vs-admitted observability hinges on the
  /// distinction. Called by the solver only at decision level 0. The
  /// spans passed to `consume` are valid only for the duration of the
  /// callback.
  virtual int importClauses(
      const std::function<void(std::span<const Lit>)>& consume,
      int maxClauses) = 0;

  /// Cheap hint: true when a drain would plausibly deliver something.
  /// The solver's conflict-cadence import forces a level-0 backtrack
  /// only when this returns true, so a quiet exchange costs no search
  /// progress. Conservative overrides are fine (the default never
  /// suppresses a drain).
  [[nodiscard]] virtual bool hasPending() const { return true; }
};

}  // namespace msu
