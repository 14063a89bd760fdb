#include "core/linear_search.h"

#include <cassert>

#include "core/incremental_atmost.h"
#include "core/oracle_session.h"

namespace msu {

LinearSearchSolver::LinearSearchSolver(MaxSatOptions options, PbEncoding pb)
    : opts_(options), pb_(pb) {}

std::string LinearSearchSolver::name() const {
  return std::string("linear-") + toString(opts_.encoding) + "/" +
         toString(pb_);
}

MaxSatResult LinearSearchSolver::solve(const WcnfFormula& formula) {
  MaxSatResult result;
  const Weight total = formula.totalSoftWeight();
  const bool unit = formula.isUnweighted();

  OracleSession session(opts_);
  SoftTracker& tracker = session.trackSofts(formula);

  // The PBO formulation: every clause gets its blocking variable at once.
  std::vector<PbTerm> terms;
  terms.reserve(static_cast<std::size_t>(tracker.numSoft()));
  for (int i = 0; i < tracker.numSoft(); ++i) {
    tracker.relax(i);
    terms.push_back({tracker.selector(i),
                     formula.soft()[static_cast<std::size_t>(i)].weight});
  }

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight upper = total + 1;  // no model yet
  Assignment bestModel;

  auto finish = [&](MaxSatStatus st) {
    result.status = st;
    result.lowerBound = (st == MaxSatStatus::Optimum) ? upper : 0;
    result.upperBound = std::min(upper, total);
    if (st == MaxSatStatus::Optimum) {
      result.cost = upper;
      result.model = std::move(bestModel);
    } else if (upper <= total) {
      result.model = std::move(bestModel);
    }
    session.exportStats(result);
    return result;
  };

  auto blockingWeight = [&](const std::vector<lbool>& model) {
    Weight w = 0;
    for (const PbTerm& t : terms) {
      if (applySign(model[static_cast<std::size_t>(t.lit.var())], t.lit) ==
          lbool::True) {
        w += t.coeff;
      }
    }
    return w;
  };

  IncrementalAtMost card(opts_.encoding, opts_.reuseEncodings);
  const std::vector<Lit> blocking = tracker.blockingLits();
  ScopeHandle boundScope;  // weighted: scope of the current bound
  while (true) {
    ++result.iterations;
    const lbool st = session.solve();
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown);

    if (st == lbool::False) {
      // No model beats the bound: either the hards alone are
      // unsatisfiable (no model ever) or the last model is optimal.
      if (upper > total) return finish(MaxSatStatus::UnsatisfiableHard);
      return finish(MaxSatStatus::Optimum);
    }

    Assignment model = tracker.originalModel(session.sat().model());
    Weight nu;
    if (opts_.tightenWithModelCost) {
      const std::optional<Weight> cost = formula.cost(model);
      assert(cost.has_value());
      nu = *cost;
    } else {
      nu = blockingWeight(session.sat().model());
    }
    if (nu < upper) {
      upper = nu;
      bestModel = std::move(model);
      if (opts_.onBounds) opts_.onBounds(0, upper);
    }
    if (upper == 0) return finish(MaxSatStatus::Optimum);

    // Demand a strictly better model. A falsified soft clause forces its
    // blocking variable, so every model of the tightened formula costs
    // at most upper - 1. The previous bound is retired rather than left
    // behind as dead clauses (or extended in place, where the
    // cardinality encoding allows it).
    if (unit) {
      card.assertAtMost(session.sink(), blocking, static_cast<int>(upper) - 1);
    } else {
      if (boundScope.defined()) session.retire(boundScope);
      boundScope = session.beginScope();
      encodePbLeq(session.sink(), terms, upper - 1, pb_);
      session.endScope(boundScope);
    }
  }
}

}  // namespace msu
