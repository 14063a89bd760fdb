#include "core/oll.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/oracle_session.h"
#include "encodings/totalizer.h"

namespace msu {

OllSolver::OllSolver(MaxSatOptions options) : opts_(options) {}

std::string OllSolver::name() const { return "oll"; }

MaxSatResult OllSolver::solve(const WcnfFormula& formula) {
  MaxSatResult result;
  const Weight total = formula.totalSoftWeight();

  OracleSession session(opts_);
  session.addHards(formula);

  // Active soft items, keyed by assumption literal: assuming the literal
  // claims "no (further) cost here"; its weight is what a violation
  // still costs beyond the charged lower bound.
  std::map<Lit, Weight> active;

  // Soft-clause selectors: (C_i ∨ s_i), assumption ¬s_i.
  for (const SoftClause& sc : formula.soft()) {
    const Lit sel = posLit(session.sat().newVar());
    Clause withSel = sc.lits;
    withSel.push_back(sel);
    static_cast<void>(session.sat().addClause(withSel));
    active[~sel] += sc.weight;
  }

  // Soft cardinality constraints: assumption literal -> (totalizer id,
  // bound b), meaning "at most b of the underlying core violated". Each
  // totalizer lives in its own enforced scope and counts how many of
  // its bound assumptions are still active: once the last one is paid
  // off (no successor bound remains), the whole structure is vacuous
  // and its scope is physically retired — clauses deleted, counting
  // variables recycled.
  //
  // Cores may name the sum assumptions of earlier totalizers, so a new
  // totalizer can *count the outputs* of older ones. Such a dependency
  // pins the older structure: retiring it early would let the retire()
  // literal scan delete the dependent's counting clauses (the scope
  // contract's cross-scope safety net acting as a wrecking ball).
  // Retirement therefore waits until a structure is both vacuous and
  // unpinned, cascading to its dependencies.
  struct SumRef {
    int totalizer = -1;
    int bound = 0;
  };
  struct TotRec {
    std::unique_ptr<Totalizer> tot;
    ScopeHandle scope;
    int activeSums = 0;
    int pins = 0;           // live dependents counting our outputs
    std::vector<int> deps;  // totalizer ids our inputs reference
  };
  std::vector<TotRec> totalizers;
  std::map<Lit, SumRef> sums;
  std::unordered_map<Var, int> outputOwner;  // totalizer output var -> id

  Weight lower = 0;

  auto notifyBounds = [&] {
    if (opts_.onBounds) opts_.onBounds(lower, total + 1);
  };

  auto finish = [&](MaxSatStatus st, Weight cost, Assignment model) {
    result.status = st;
    result.lowerBound = lower;
    result.upperBound = (st == MaxSatStatus::Optimum) ? cost : total;
    result.cost = (st == MaxSatStatus::Optimum) ? cost : 0;
    result.model = std::move(model);
    session.exportStats(result);
    return result;
  };

  if (!session.okay()) return finish(MaxSatStatus::UnsatisfiableHard, 0, {});

  while (true) {
    ++result.iterations;
    std::vector<Lit> assumptions;
    assumptions.reserve(active.size());
    for (const auto& [lit, w] : active) assumptions.push_back(lit);

    const lbool st = session.solve(assumptions);
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown, 0, {});

    if (st == lbool::True) {
      // All residual softs satisfied: the model's cost equals the
      // charged lower bound, which is the optimum. The equality is the
      // exactness of the RC2-style charge bookkeeping — if it ever
      // drifts, the accounting is undercounting and the "optimum" would
      // be wrong, so fail loudly in debug builds.
      Assignment model(static_cast<std::size_t>(formula.numVars()));
      for (Var v = 0; v < formula.numVars(); ++v) {
        model[static_cast<std::size_t>(v)] =
            session.sat().model()[static_cast<std::size_t>(v)];
      }
      const std::optional<Weight> cost = formula.cost(model);
      assert(cost.has_value() && *cost == lower);
      return finish(MaxSatStatus::Optimum, cost.value_or(lower),
                    std::move(model));
    }

    // UNSAT: process the core.
    ++result.coresFound;
    std::vector<Lit> core = session.sat().core();
    // Auto-assumed scope activators may ride along in the core; only
    // the tracked assumption literals carry cost.
    std::erase_if(core, [&](Lit p) { return !active.contains(p); });
    if (core.empty()) return finish(MaxSatStatus::UnsatisfiableHard, 0, {});
    if (opts_.trimCoreRounds > 0 && core.size() > 1) {
      core = session.trimCore(std::move(core), opts_.trimCoreRounds);
      std::erase_if(core, [&](Lit p) { return !active.contains(p); });
      if (core.empty()) return finish(MaxSatStatus::UnsatisfiableHard, 0, {});
    }

    Weight wmin = 0;
    for (const Lit a : core) {
      const auto it = active.find(a);
      assert(it != active.end());
      wmin = (wmin == 0) ? it->second : std::min(wmin, it->second);
    }
    lower += wmin;
    notifyBounds();

    // Charge every member; deactivate the fully paid ones. For soft
    // cardinality members, push this core's charge onto the *successor*
    // bound on every occurrence (RC2-style), fully paid or not: a
    // totalizer may carry several active bounds with split weights.
    // Only charging the successor on full payment would leak charge
    // mass on partial payments, leaving the assumption set too weak —
    // the search then accepts a suboptimal model as "optimal" (its
    // cost exceeding the proven lower bound).
    std::vector<int> touched;  // totalizers whose sums changed
    for (const Lit a : core) {
      auto it = active.find(a);
      it->second -= wmin;
      const bool paid = it->second == 0;
      if (paid) active.erase(it);

      const auto sumIt = sums.find(a);
      if (sumIt == sums.end()) continue;
      const SumRef ref = sumIt->second;
      TotRec& rec = totalizers[static_cast<std::size_t>(ref.totalizer)];
      touched.push_back(ref.totalizer);
      if (paid) {
        sums.erase(sumIt);
        --rec.activeSums;
      }
      const int nextBound = ref.bound + 1;
      if (nextBound >= rec.tot->numInputs()) continue;  // "<= k" is vacuous
      const Lit next =
          ~rec.tot->outputs()[static_cast<std::size_t>(nextBound)];
      active[next] += wmin;
      if (sums.emplace(next, SumRef{ref.totalizer, nextBound}).second) {
        ++rec.activeSums;
      }
    }

    // New soft cardinality constraint over this core: "at most one of
    // these violated" at weight wmin (a singleton core has nothing to
    // count — its violation is fully charged already).
    if (core.size() >= 2) {
      std::vector<Lit> violated;
      violated.reserve(core.size());
      for (const Lit a : core) violated.push_back(~a);
      TotRec rec;
      const int id = static_cast<int>(totalizers.size());
      // Inputs that are outputs of earlier totalizers pin those
      // structures until this one retires.
      for (const Lit a : core) {
        const auto ownerIt = outputOwner.find(a.var());
        if (ownerIt == outputOwner.end()) continue;
        if (std::find(rec.deps.begin(), rec.deps.end(), ownerIt->second) !=
            rec.deps.end()) {
          continue;
        }
        rec.deps.push_back(ownerIt->second);
        ++totalizers[static_cast<std::size_t>(ownerIt->second)].pins;
      }
      rec.scope = session.beginScope();
      rec.tot = std::make_unique<Totalizer>(session.sink(), violated,
                                            /*bothPolarities=*/false);
      session.endScope(rec.scope);
      for (const Lit o : rec.tot->outputs()) outputOwner[o.var()] = id;
      const Lit slit = ~rec.tot->outputs()[1];
      active[slit] += wmin;
      sums.emplace(slit, SumRef{id, 1});
      rec.activeSums = 1;
      totalizers.push_back(std::move(rec));
    }

    // Retire totalizers whose every bound has been charged *and* that
    // no live successor counts: their constraint no longer backs any
    // assumption, so the clauses and counting variables are reclaimed
    // wholesale. Retiring a dependent unpins its dependencies, which
    // may cascade.
    std::vector<int> retireWork = touched;
    while (!retireWork.empty()) {
      const int id = retireWork.back();
      retireWork.pop_back();
      TotRec& rec = totalizers[static_cast<std::size_t>(id)];
      if (rec.activeSums > 0 || rec.pins > 0 || !rec.scope.defined()) {
        continue;
      }
      session.retire(rec.scope);
      rec.scope = ScopeHandle{};
      rec.tot.reset();
      for (const int dep : rec.deps) {
        --totalizers[static_cast<std::size_t>(dep)].pins;
        retireWork.push_back(dep);
      }
      rec.deps.clear();
    }
  }
}

}  // namespace msu
