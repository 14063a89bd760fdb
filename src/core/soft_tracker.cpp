#include "core/soft_tracker.h"

#include <algorithm>

namespace msu {

SoftTracker::SoftTracker(Solver& solver, const WcnfFormula& formula) {
  num_original_vars_ = formula.numVars();
  while (solver.numVars() < num_original_vars_) {
    static_cast<void>(solver.newVar());
  }
  for (const Clause& h : formula.hard()) {
    static_cast<void>(solver.addClause(h));
  }
  selectors_.reserve(static_cast<std::size_t>(formula.numSoft()));
  relaxed_.assign(static_cast<std::size_t>(formula.numSoft()), 0);
  for (int i = 0; i < formula.numSoft(); ++i) {
    const Var a = solver.newVar();
    var_to_soft_.resize(static_cast<std::size_t>(a) + 1, -1);
    var_to_soft_[static_cast<std::size_t>(a)] = i;
    selectors_.push_back(posLit(a));
    Clause augmented = formula.soft()[static_cast<std::size_t>(i)].lits;
    augmented.push_back(posLit(a));
    static_cast<void>(solver.addClause(augmented));
  }
}

std::optional<int> SoftTracker::softOfVar(Var v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= var_to_soft_.size()) {
    return std::nullopt;
  }
  const int idx = var_to_soft_[static_cast<std::size_t>(v)];
  if (idx < 0) return std::nullopt;
  return idx;
}

std::vector<Lit> SoftTracker::assumptions() const {
  std::vector<Lit> out;
  out.reserve(selectors_.size());
  for (int i = 0; i < numSoft(); ++i) {
    if (!isRelaxed(i)) out.push_back(~selectors_[static_cast<std::size_t>(i)]);
  }
  // Canonical prefix-stable order (see the header contract): ascending
  // selector variable. Construction already allocates selectors in
  // ascending order, so the sort is a no-op guard — but the warm-start
  // prefix reuse in the solver depends on the order, so it is enforced
  // rather than assumed.
  if (!std::is_sorted(out.begin(), out.end(),
                      [](Lit a, Lit b) { return a.var() < b.var(); })) {
    std::stable_sort(out.begin(), out.end(),
                     [](Lit a, Lit b) { return a.var() < b.var(); });
  }
  return out;
}

std::vector<Lit> SoftTracker::blockingLits() const {
  std::vector<Lit> out;
  out.reserve(relax_order_.size());
  for (int i : relax_order_) {
    out.push_back(selectors_[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::vector<int> SoftTracker::coreSoftIndices(std::span<const Lit> core) const {
  std::vector<int> out;
  for (Lit p : core) {
    if (std::optional<int> idx = softOfVar(p.var())) out.push_back(*idx);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int SoftTracker::relaxedFalsifiedCost(const WcnfFormula& formula,
                                      const std::vector<lbool>& model) const {
  int cost = 0;
  for (int i = 0; i < numSoft(); ++i) {
    if (!isRelaxed(i)) continue;
    const Clause& c = formula.soft()[static_cast<std::size_t>(i)].lits;
    bool sat = false;
    for (Lit p : c) {
      if (applySign(model[static_cast<std::size_t>(p.var())], p) ==
          lbool::True) {
        sat = true;
        break;
      }
    }
    if (!sat) ++cost;
  }
  return cost;
}

int SoftTracker::blockingAssignedTrue(const std::vector<lbool>& model) const {
  int n = 0;
  for (int i = 0; i < numSoft(); ++i) {
    if (!isRelaxed(i)) continue;
    const Lit a = selectors_[static_cast<std::size_t>(i)];
    if (applySign(model[static_cast<std::size_t>(a.var())], a) == lbool::True) {
      ++n;
    }
  }
  return n;
}

Assignment SoftTracker::originalModel(const std::vector<lbool>& model) const {
  Assignment out(static_cast<std::size_t>(num_original_vars_));
  for (int v = 0; v < num_original_vars_; ++v) {
    const lbool val = model[static_cast<std::size_t>(v)];
    // Complete the model deterministically: unconstrained variables get
    // `false` so downstream cost evaluation sees a total assignment.
    out[static_cast<std::size_t>(v)] =
        (val == lbool::Undef) ? lbool::False : val;
  }
  return out;
}

}  // namespace msu
