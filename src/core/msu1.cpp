#include "core/msu1.h"

#include <algorithm>
#include <unordered_map>

#include "core/oracle_session.h"
#include "encodings/cardinality.h"

namespace msu {
namespace {

/// One active soft item: a clause version in the solver with its weight.
/// The version lives in its own encoding scope; the scope activator
/// doubles as the enforcement assumption (handled by the session's
/// oracle), and retiring the scope deletes the clause physically and
/// recycles the selector variable — the modern form of Fu–Malik's
/// unit-asserted selectors.
struct SoftItem {
  Clause lits;          ///< original literals plus accumulated blocking vars
  Weight weight;        ///< remaining weight carried by this version
  ScopeHandle version;  ///< scope of the current version
};

}  // namespace

Msu1Solver::Msu1Solver(MaxSatOptions options) : opts_(options) {}

std::string Msu1Solver::name() const { return "msu1"; }

MaxSatResult Msu1Solver::solve(const WcnfFormula& formula) {
  MaxSatResult result;
  const int numOriginalVars = formula.numVars();
  const Weight totalSoft = formula.totalSoftWeight();

  OracleSession session(opts_);
  session.addHards(formula);

  std::vector<SoftItem> items;
  std::unordered_map<Var, int> activatorToItem;

  auto install = [&](Clause lits, Weight weight) {
    const ScopeHandle act = session.beginScope();
    session.sink().addClause(lits);
    session.endScope(act);
    activatorToItem[act.activator().var()] = static_cast<int>(items.size());
    items.push_back(SoftItem{std::move(lits), weight, act});
  };

  for (const SoftClause& s : formula.soft()) install(s.lits, s.weight);

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight cost = 0;

  auto finish = [&](MaxSatStatus st, Assignment model) {
    result.status = st;
    result.lowerBound = cost;
    result.upperBound = (st == MaxSatStatus::Optimum) ? cost : totalSoft;
    result.cost = (st == MaxSatStatus::Optimum) ? cost : 0;
    result.model = std::move(model);
    session.exportStats(result);
    return result;
  };

  while (true) {
    ++result.iterations;
    // Enforcement is automatic: every live version scope's activator is
    // assumed by the solver itself.
    const lbool st = session.solve();
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown, {});

    if (st == lbool::True) {
      Assignment model(static_cast<std::size_t>(numOriginalVars));
      for (Var v = 0; v < numOriginalVars; ++v) {
        const lbool val = session.sat().model()[static_cast<std::size_t>(v)];
        model[static_cast<std::size_t>(v)] =
            (val == lbool::Undef) ? lbool::False : val;
      }
      return finish(MaxSatStatus::Optimum, std::move(model));
    }

    ++result.coresFound;
    std::vector<int> coreItems;
    for (Lit p : session.sat().core()) {
      if (auto it = activatorToItem.find(p.var());
          it != activatorToItem.end()) {
        coreItems.push_back(it->second);
      }
    }
    std::sort(coreItems.begin(), coreItems.end());
    coreItems.erase(std::unique(coreItems.begin(), coreItems.end()),
                    coreItems.end());
    if (coreItems.empty()) {
      return finish(MaxSatStatus::UnsatisfiableHard, {});
    }

    // Charge the core its minimum weight and split the members.
    Weight wmin = items[static_cast<std::size_t>(coreItems[0])].weight;
    for (int idx : coreItems) {
      wmin = std::min(wmin, items[static_cast<std::size_t>(idx)].weight);
    }

    // Retire every core member's version in one batch sweep, then
    // install the residual and relaxed successors.
    std::vector<ScopeHandle> retired;
    std::vector<std::pair<Clause, Weight>> split;  // (lits, old weight)
    retired.reserve(coreItems.size());
    split.reserve(coreItems.size());
    for (int idx : coreItems) {
      SoftItem& item = items[static_cast<std::size_t>(idx)];
      retired.push_back(item.version);
      activatorToItem.erase(item.version.activator().var());
      split.emplace_back(item.lits, item.weight);
      item.weight = 0;  // retired
    }
    session.retireAll(retired);

    std::vector<Lit> freshBlocking;
    freshBlocking.reserve(split.size());
    for (auto& [clauseLits, weight] : split) {
      const Weight residual = weight - wmin;
      if (residual > 0) {
        // Residual copy without a new blocking variable.
        install(clauseLits, residual);
      }
      // Relaxed copy of weight wmin with a fresh blocking variable.
      const Lit b = posLit(session.sat().newVar());
      Clause relaxed = std::move(clauseLits);
      relaxed.push_back(b);
      freshBlocking.push_back(b);
      install(std::move(relaxed), wmin);
    }
    encodeExactlyOne(session.sink(), freshBlocking);
    cost += wmin;
    if (opts_.onBounds) opts_.onBounds(cost, totalSoft + 1);
  }
}

}  // namespace msu
