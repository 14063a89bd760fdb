/// \file msu4.h
/// \brief The paper's contribution: the msu4 core-guided MaxSAT
///        algorithm (Marques-Silva & Planes, DATE 2008, Algorithm 1).
///
/// msu4 alternates SAT calls on a working formula:
///  * UNSAT outcomes yield a core; initial clauses in the core without a
///    blocking variable are relaxed with one blocking variable each (we
///    reuse the clause's selector — see soft_tracker.h), an optional
///    "at-least-one new blocking variable" clause is added, and the
///    proven lower bound on the cost rises by one.
///  * SAT outcomes yield a model whose blocking-variable count refines
///    the upper bound; a cardinality constraint over *all* blocking
///    variables then forces the next model to be strictly better.
/// Termination: a core containing no unblocked initial clause, or the
/// bounds meeting. The best model's cost is the MaxSAT optimum.
///
/// Variants: v1 = BDD cardinality encoding, v2 = sorting networks —
/// the paper's two implementations. v2's network is built for the
/// bound it enforces and grows in place, which the paper does not do:
/// each batch of new blocking variables is sorted for the bound and
/// joined to the grown outputs by the same merge rule (see
/// core/incremental_atmost.h).

#pragma once

#include "core/maxsat.h"

namespace msu {

/// The msu4 engine.
class Msu4Solver final : public MaxSatSolver {
 public:
  explicit Msu4Solver(MaxSatOptions options = {});

  /// Paper variant v1 (BDD cardinality encodings).
  [[nodiscard]] static Msu4Solver v1(MaxSatOptions options = {});

  /// Paper variant v2 (sorting-network cardinality encodings).
  [[nodiscard]] static Msu4Solver v2(MaxSatOptions options = {});

  [[nodiscard]] std::string name() const override;

  /// Solves a unit-weight input as is and a weighted one by duplicating
  /// each soft clause (WcnfFormula::unitWeight); beyond its clause cap
  /// the answer is Unknown with the trivial bounds.
  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

 private:
  MaxSatOptions opts_;
};

}  // namespace msu
