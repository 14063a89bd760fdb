/// \file pbo_solver.h
/// \brief Pseudo-Boolean Optimization via SAT, in the style of minisat+
///        (Eén & Sörensson): encode PB constraints to CNF, then perform
///        model-improving linear search on the objective by repeatedly
///        asserting `objective <= best - 1`.
///
/// PboSolver is an adapter over the library's one linear search
/// (core/linear_search.h): the clauses and the encoded PB constraints
/// become hard clauses of a MaxSAT instance, each objective term
/// `c * l` becomes a unit soft clause `~l` of weight `c`, and the
/// search runs on an OracleSession with its bounds in retired scopes.

#pragma once

#include <vector>

#include "cnf/formula.h"
#include "cnf/wcnf.h"
#include "encodings/pb.h"
#include "sat/budget.h"
#include "sat/solver.h"
#include "sat/stats.h"

namespace msu {

/// A pseudo-Boolean "less-or-equal" constraint: `sum(terms) <= bound`.
struct PbConstraint {
  std::vector<PbTerm> terms;
  Weight bound = 0;
};

/// A PBO instance: minimize `objective` subject to CNF clauses and PB
/// constraints.
struct PboProblem {
  int numVars = 0;
  std::vector<Clause> clauses;
  std::vector<PbConstraint> constraints;
  std::vector<PbTerm> objective;  ///< coefficients must be positive

  /// Constant added to the reported objective (used by the OPB reader
  /// to normalize negative coefficients: `-c*x == -c + c*(~x)`).
  Weight objectiveOffset = 0;
};

/// Outcome of a PBO solve.
enum class PboStatus { Optimum, Infeasible, Unknown };

/// Result of a PBO solve.
struct PboResult {
  PboStatus status = PboStatus::Unknown;
  Weight objective = 0;  ///< optimum value when status == Optimum
  Weight upperBound = 0;  ///< best model value seen (valid unless Infeasible)
  Assignment model;       ///< over the problem's original variables
  std::int64_t iterations = 0;
  SolverStats satStats;
};

/// Options for the PBO engine.
struct PboOptions {
  Budget budget;
  /// Translation of the PB constraints and of weighted objective bounds
  /// (a unit-coefficient objective is bounded by a cardinality sorter).
  PbEncoding encoding = PbEncoding::Bdd;
  Solver::Options sat;
};

/// The PBO engine.
class PboSolver {
 public:
  explicit PboSolver(PboOptions options = {});

  [[nodiscard]] PboResult solve(const PboProblem& problem);

 private:
  PboOptions opts_;
};

}  // namespace msu
