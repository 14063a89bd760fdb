#include "core/bounds.h"

#include "core/soft_tracker.h"

namespace msu {

namespace {

/// Options of a solver over a unit-weight formula: `expanded`, the
/// copy made of a weighted input, counts against the memory cap for as
/// long as the solver lives.
Solver::Options chargedFor(const std::optional<WcnfFormula>& expanded) {
  Solver::Options o;
  if (expanded) o.external_mem_bytes = expanded->memBytesEstimate();
  return o;
}

}  // namespace

DisjointCoresResult disjointCores(const WcnfFormula& input,
                                  const Budget& budget) {
  DisjointCoresResult result;
  std::optional<WcnfFormula> expanded;
  const WcnfFormula* unit = input.unitWeight(expanded);
  if (unit == nullptr) return result;
  const WcnfFormula& formula = *unit;

  Solver sat(chargedFor(expanded));
  sat.setBudget(budget);
  SoftTracker tracker(sat, formula);
  if (!sat.okay()) {
    // Hard clauses already unsatisfiable: every "core" is within the
    // hard part; no soft bound is derivable this way.
    return result;
  }

  while (true) {
    ++result.satCalls;
    const lbool st = sat.solve(tracker.assumptions());
    if (st == lbool::Undef) return result;  // incomplete
    if (st == lbool::True) {
      result.complete = true;
      return result;
    }
    const std::vector<int> coreSoft = tracker.coreSoftIndices(sat.core());
    if (coreSoft.empty()) {
      // Unsatisfiable independently of the softs: hard part unsat.
      result.complete = true;
      return result;
    }
    // Remove the core's clauses from further consideration; the next
    // core is therefore clause-disjoint from all previous ones.
    for (int i : coreSoft) tracker.relax(i);
    result.cores.push_back(coreSoft);
  }
}

std::optional<BlockingBoundResult> blockingUpperBound(
    const WcnfFormula& input, const Budget& budget) {
  std::optional<WcnfFormula> expanded;
  const WcnfFormula* unit = input.unitWeight(expanded);
  if (unit == nullptr) return std::nullopt;
  const WcnfFormula& formula = *unit;

  Solver sat(chargedFor(expanded));
  sat.setBudget(budget);
  SoftTracker tracker(sat, formula);
  for (int i = 0; i < tracker.numSoft(); ++i) tracker.relax(i);
  if (!sat.okay()) return std::nullopt;

  const lbool st = sat.solve();
  if (st != lbool::True) return std::nullopt;

  BlockingBoundResult out;
  out.costUpperBound = tracker.relaxedFalsifiedCost(formula, sat.model());
  out.model = tracker.originalModel(sat.model());
  return out;
}

}  // namespace msu
