#include "core/binary_search.h"

#include "core/incremental_atmost.h"
#include "core/oracle_session.h"

namespace msu {

BinarySearchSolver::BinarySearchSolver(MaxSatOptions options)
    : opts_(options) {}

std::string BinarySearchSolver::name() const {
  return std::string("binary-") + toString(opts_.encoding);
}

MaxSatResult BinarySearchSolver::solve(const WcnfFormula& input) {
  MaxSatResult result;
  std::optional<WcnfFormula> expanded;
  const WcnfFormula* unit = input.unitWeight(expanded);
  if (unit == nullptr) {
    result.upperBound = input.totalSoftWeight();
    return result;
  }
  const WcnfFormula& formula = *unit;
  const Weight m = formula.numSoft();

  OracleSession session(opts_, expanded);
  SoftTracker& tracker = session.trackSofts(formula);
  for (int i = 0; i < tracker.numSoft(); ++i) tracker.relax(i);

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight lower = 0;
  Weight upper = m + 1;  // no model yet
  Assignment bestModel;

  auto finish = [&](MaxSatStatus st) {
    result.status = st;
    result.lowerBound = lower;
    result.upperBound = std::min(upper, m);
    if (st == MaxSatStatus::Optimum) {
      result.cost = upper;
      result.model = std::move(bestModel);
    } else if (upper <= m) {
      result.model = std::move(bestModel);
    }
    session.exportStats(result);
    return result;
  };

  // Initial model establishes feasibility and the first upper bound.
  ++result.iterations;
  {
    const lbool st = session.solve();
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown);
    if (st == lbool::False) return finish(MaxSatStatus::UnsatisfiableHard);
    upper = tracker.relaxedFalsifiedCost(formula, session.sat().model());
    bestModel = tracker.originalModel(session.sat().model());
  }

  AssumableAtMost bound(session.sink(), tracker.blockingLits(),
                        opts_.encoding);

  while (lower < upper) {
    ++result.iterations;
    const Weight mid = lower + (upper - lower) / 2;
    std::vector<Lit> assumps;
    if (std::optional<Lit> b = bound.boundLit(static_cast<int>(mid))) {
      assumps.push_back(*b);
    }
    const lbool st = session.solve(assumps);
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown);
    if (st == lbool::True) {
      const Weight nu =
          tracker.relaxedFalsifiedCost(formula, session.sat().model());
      if (nu < upper) {
        upper = nu;
        bestModel = tracker.originalModel(session.sat().model());
        if (opts_.onBounds) opts_.onBounds(lower, upper);
      }
    } else {
      ++result.coresFound;
      lower = mid + 1;
      if (opts_.onBounds) opts_.onBounds(lower, upper);
    }
    // The interval shrank: bound structures the search can no longer
    // revisit are physically retired (and their variables recycled).
    bound.pruneOutside(static_cast<int>(lower), static_cast<int>(upper));
  }
  return finish(MaxSatStatus::Optimum);
}

}  // namespace msu
