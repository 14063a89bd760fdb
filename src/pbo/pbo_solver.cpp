#include "pbo/pbo_solver.h"

#include "core/linear_search.h"
#include "encodings/sink.h"

namespace msu {

PboSolver::PboSolver(PboOptions options) : opts_(options) {}

PboResult PboSolver::solve(const PboProblem& problem) {
  // The PBO instance as MaxSAT: a term `c * l` costs c exactly when its
  // unit soft clause `~l` is falsified.
  WcnfFormula wcnf(problem.numVars);
  for (const Clause& c : problem.clauses) wcnf.addHard(c);
  WcnfHardSink sink(wcnf);
  for (const PbConstraint& pc : problem.constraints) {
    encodePbLeq(sink, pc.terms, pc.bound, opts_.encoding);
  }
  for (const PbTerm& t : problem.objective) wcnf.addSoft({~t.lit}, t.coeff);

  MaxSatOptions mo;
  mo.budget = opts_.budget;
  mo.sat = opts_.sat;
  LinearSearchSolver engine(mo, opts_.encoding);
  const MaxSatResult r = engine.solve(wcnf);

  PboResult result;
  switch (r.status) {
    case MaxSatStatus::Optimum:
      result.status = PboStatus::Optimum;
      break;
    case MaxSatStatus::UnsatisfiableHard:
      result.status = PboStatus::Infeasible;
      break;
    case MaxSatStatus::Unknown:
      result.status = PboStatus::Unknown;
      break;
  }
  if (!r.model.empty()) {
    result.objective = r.upperBound + problem.objectiveOffset;
    result.upperBound = result.objective;
    result.model.assign(r.model.begin(), r.model.begin() + problem.numVars);
  }
  result.iterations = r.iterations;
  result.satStats = r.satStats;
  return result;
}

}  // namespace msu
