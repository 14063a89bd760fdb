#include "core/msu4.h"

#include <string>

#include "core/incremental_atmost.h"
#include "core/oracle_session.h"

namespace msu {

Msu4Solver::Msu4Solver(MaxSatOptions options) : opts_(options) {}

Msu4Solver Msu4Solver::v1(MaxSatOptions options) {
  options.encoding = CardEncoding::Bdd;
  return Msu4Solver(options);
}

Msu4Solver Msu4Solver::v2(MaxSatOptions options) {
  options.encoding = CardEncoding::Sorter;
  return Msu4Solver(options);
}

std::string Msu4Solver::name() const {
  switch (opts_.encoding) {
    case CardEncoding::Bdd:
      return "msu4-v1";
    case CardEncoding::Sorter:
      return "msu4-v2";
    case CardEncoding::Totalizer:
      return "msu4-tot";
  }
  return "msu4";
}

MaxSatResult Msu4Solver::solve(const WcnfFormula& input) {
  MaxSatResult result;
  std::optional<WcnfFormula> expanded;
  const WcnfFormula* unit = input.unitWeight(expanded);
  if (unit == nullptr) {
    // Weights too large to duplicate: Unknown, with the trivial bounds.
    result.upperBound = input.totalSoftWeight();
    return result;
  }
  const WcnfFormula& formula = *unit;
  const Weight m = formula.numSoft();

  OracleSession session(opts_, expanded);
  SoftTracker& tracker = session.trackSofts(formula);
  IncrementalAtMost card(opts_.encoding, opts_.reuseEncodings);

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight lower = 0;       // proven: cost >= lower   (paper: |phi| - U)
  Weight upper = m + 1;   // best model cost; m+1 = "no model yet"
  Assignment bestModel;

  auto notifyBounds = [&] {
    if (opts_.onBounds) opts_.onBounds(lower, upper);
  };

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

  while (true) {
    ++result.iterations;
    const lbool st = session.solve();

    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown);

    if (st == lbool::True) {
      // SAT: refine the upper bound (Algorithm 1, lines 26-31).
      const Weight nu =
          opts_.tightenWithModelCost
              ? tracker.relaxedFalsifiedCost(formula, session.sat().model())
              : tracker.blockingAssignedTrue(session.sat().model());
      if (nu < upper) {
        upper = nu;
        bestModel = tracker.originalModel(session.sat().model());
        notifyBounds();
      }
      if (lower >= upper) return finish(MaxSatStatus::Optimum);
      // Require strictly fewer blocking variables next time; a re-encode
      // retires the previous bound structure through the session.
      card.assertAtMost(session.sink(), tracker.blockingLits(),
                        static_cast<int>(upper) - 1);
      continue;
    }

    // UNSAT: analyse the core (Algorithm 1, lines 12-24).
    ++result.coresFound;
    std::vector<Lit> coreLits = session.sat().core();
    if (opts_.trimCoreRounds > 0 && coreLits.size() > 1) {
      coreLits = session.trimCore(std::move(coreLits), opts_.trimCoreRounds);
    }
    const std::vector<int> coreSoft = tracker.coreSoftIndices(coreLits);
    if (coreSoft.empty()) {
      // No initial clause without a blocking variable in the core.
      if (upper > m) {
        // Never saw a model and no cardinality constraint is active:
        // the hard clauses themselves are unsatisfiable.
        return finish(MaxSatStatus::UnsatisfiableHard);
      }
      return finish(MaxSatStatus::Optimum);
    }
    std::vector<Lit> freshBlocking;
    freshBlocking.reserve(coreSoft.size());
    for (int i : coreSoft) {
      tracker.relax(i);
      freshBlocking.push_back(tracker.selector(i));
    }
    if (opts_.msu4AtLeastOne) {
      // Optional line 19: at least one of the new blocking variables must
      // be used (prevents re-deriving the same core).
      static_cast<void>(session.sat().addClause(freshBlocking));
    }
    lower += 1;  // U++ : every assignment falsifies one more clause
    notifyBounds();
    if (lower >= upper && upper <= m) return finish(MaxSatStatus::Optimum);
  }
}

}  // namespace msu
