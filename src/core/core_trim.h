/// \file core_trim.h
/// \brief Unsatisfiable-core reduction. The paper observes msu4 is
///        "effective only for instances for which SAT solvers are
///        effective at identifying small unsatisfiable cores"; trimCore
///        shrinks the cores the solver returns before the MaxSAT engine
///        commits blocking variables to them (msu4 and oll, with
///        `MaxSatOptions::trimCoreRounds`), and seeds the MUS extractor
///        in mus/mus.h, which minimizes a trimmed core by deletion.
///
/// The fixpoint is cheap: re-solve under the core itself; the
/// final-conflict analysis of the re-solve usually returns a proper
/// subset. Iterate until stable or the round limit.

#pragma once

#include <vector>

#include "cnf/literal.h"
#include "sat/solver.h"

namespace msu {

/// Fixpoint trimming in at most `rounds` re-solves. `core` must be a
/// failing assumption set of `solver` (conjunction inconsistent with the
/// clause database). Returns a subset that is still failing. The solver
/// keeps any clauses it learns — later calls only get faster.
[[nodiscard]] std::vector<Lit> trimCore(Solver& solver, std::vector<Lit> core,
                                        int rounds = 4);

}  // namespace msu
