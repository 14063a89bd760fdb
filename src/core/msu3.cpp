#include "core/msu3.h"

#include "core/incremental_atmost.h"
#include "core/oracle_session.h"

namespace msu {

Msu3Solver::Msu3Solver(MaxSatOptions options) : opts_(options) {}

std::string Msu3Solver::name() const {
  return std::string("msu3-") + toString(opts_.encoding);
}

MaxSatResult Msu3Solver::solve(const WcnfFormula& input) {
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

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight lambda = 0;  // proven: cost >= lambda

  // Incremental bound structure over the blocking variables: totalizers
  // and sorting networks grow in place, everything else re-encodes into
  // a fresh scope and retires its predecessor through the session's
  // oracle.
  IncrementalAtMost card(opts_.encoding, opts_.reuseEncodings);

  auto finish = [&](MaxSatStatus st, Weight cost, Assignment model) {
    result.status = st;
    result.lowerBound = lambda;
    result.upperBound = (st == MaxSatStatus::Optimum) ? cost : m;
    result.cost = (st == MaxSatStatus::Optimum) ? cost : 0;
    result.model = std::move(model);
    session.exportStats(result);
    return result;
  };

  while (true) {
    ++result.iterations;
    std::vector<Lit> extra;
    if (const std::optional<Lit> b = card.assumeAtMost(
            session.sink(), tracker.blockingLits(), static_cast<int>(lambda))) {
      extra.push_back(*b);
    }

    const lbool st = session.solve(extra);
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown, 0, {});

    if (st == lbool::True) {
      // Model cost can only be lambda: >= lambda is proven, <= lambda is
      // enforced by the bound assumption.
      const Weight cost =
          tracker.relaxedFalsifiedCost(formula, session.sat().model());
      return finish(MaxSatStatus::Optimum, cost,
                    tracker.originalModel(session.sat().model()));
    }

    ++result.coresFound;
    const std::vector<Lit>& core = session.sat().core();
    if (core.empty()) {
      return finish(MaxSatStatus::UnsatisfiableHard, 0, {});
    }
    std::vector<int> coreSoft = tracker.coreSoftIndices(core);
    // The bound literal can alias a selector variable (a 1-input sorter /
    // totalizer returns its input), so the core may name already-relaxed
    // clauses; only still-enforced ones warrant relaxation.
    std::erase_if(coreSoft, [&](int i) { return tracker.isRelaxed(i); });
    if (!coreSoft.empty()) {
      // The core names soft clauses that are still hard-enforced: relax
      // them and retry at the same bound. (Incrementing lambda here
      // would be unsound: a cost-lambda assignment may falsify exactly
      // such a not-yet-relaxed clause, which the assumptions exclude
      // rather than count.)
      for (int i : coreSoft) tracker.relax(i);
      continue;
    }
    // The core lies entirely within hards + relaxed clauses + the bound:
    // every assignment falsifies more than lambda relaxed clauses, so
    // the optimum exceeds lambda.
    lambda += 1;
    if (opts_.onBounds) opts_.onBounds(lambda, m + 1);
  }
}

}  // namespace msu
