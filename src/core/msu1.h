/// \file msu1.h
/// \brief The msu1 algorithm — Fu & Malik's original core-guided MaxSAT
///        procedure (SAT 2006), the algorithm the paper contrasts msu4
///        against: every unsatisfiable core gets a *fresh* set of
///        blocking variables (so a clause may accumulate several), tied
///        together by an exactly-one constraint.
///
/// Weights are handled natively by weight splitting (the WPM1 scheme of
/// Ansótegui, Bonet & Levy), so weighted inputs need no clause
/// duplication: each core is charged its minimum member weight w_min.
/// Every core clause of weight w splits into a residual copy of weight
/// w - w_min (no new blocking variable) and a relaxed copy of weight
/// w_min carrying a fresh blocking variable; an exactly-one constraint
/// over the fresh blocking variables is added and the lower bound rises
/// by w_min. A satisfiable outcome certifies the accumulated charge as
/// the optimum cost. On unit weights no residual copy ever arises and
/// this is Fu–Malik: the optimum is the number of cores relaxed.

#pragma once

#include "core/maxsat.h"

namespace msu {

/// The msu1 / Fu–Malik engine.
class Msu1Solver final : public MaxSatSolver {
 public:
  explicit Msu1Solver(MaxSatOptions options = {});

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

 private:
  MaxSatOptions opts_;
};

}  // namespace msu
