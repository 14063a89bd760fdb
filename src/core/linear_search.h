/// \file linear_search.h
/// \brief SAT–UNSAT linear search: relax every soft clause with a
///        blocking variable up front (the paper's PBO formulation of
///        MaxSAT, §2.2) and repeatedly ask for a model of strictly lower
///        cost until none exists. This is the search organisation of
///        minisat+ (Eén & Sörensson, JSAT 2006) on the MaxSAT cost
///        function; the paper's `pbo` baseline is this engine with BDD
///        encodings and the raw blocking-variable objective (see
///        harness/factory.h).
///
/// Unit weights bound the number of set blocking variables with the
/// cardinality encoding `MaxSatOptions::encoding`, reusing one sorting
/// network across tightenings where it can (IncrementalAtMost). Other
/// weights bound `sum(w_i * b_i)` with a pseudo-Boolean encoding; each
/// bound lives in an encoding scope that the next tightening retires.

#pragma once

#include "core/maxsat.h"
#include "encodings/pb.h"

namespace msu {

/// Model-improving linear search from above.
class LinearSearchSolver final : public MaxSatSolver {
 public:
  /// `pb` translates the bound on weighted instances; unit-weight
  /// instances use `options.encoding` instead.
  explicit LinearSearchSolver(MaxSatOptions options = {},
                              PbEncoding pb = PbEncoding::Bdd);

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

 private:
  MaxSatOptions opts_;
  PbEncoding pb_;
};

}  // namespace msu
