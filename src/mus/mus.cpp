#include "mus/mus.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/core_trim.h"

namespace msu {

GroupCnf GroupCnf::perClause(const CnfFormula& cnf) {
  GroupCnf gcnf(cnf.numVars());
  for (const Clause& c : cnf.clauses()) gcnf.addToGroup(gcnf.addGroup(), c);
  return gcnf;
}

void GroupCnf::addBackground(std::span<const Lit> lits) {
  Clause c(lits.begin(), lits.end());
  for (const Lit p : c) ensureVars(p.var() + 1);
  background_.push_back(std::move(c));
}

void GroupCnf::addToGroup(int g, std::span<const Lit> lits) {
  assert(g >= 0 && g < numGroups());
  Clause c(lits.begin(), lits.end());
  for (const Lit p : c) ensureVars(p.var() + 1);
  groups_[static_cast<std::size_t>(g)].push_back(std::move(c));
}

namespace {

/// One selector per group: every clause of group g becomes `(C ∨ s_g)`;
/// assuming `¬s_g` enforces the whole group. Keeps the solver (and
/// everything it learns) alive across the whole extraction.
class SelectorInstance {
 public:
  SelectorInstance(const GroupCnf& gcnf, const Solver::Options& satOpts,
                   const Budget& budget)
      : solver_(satOpts) {
    solver_.setBudget(budget);
    for (Var v = 0; v < gcnf.numVars(); ++v) {
      static_cast<void>(solver_.newVar());
    }
    for (const Clause& c : gcnf.background()) {
      static_cast<void>(solver_.addClause(c));
    }
    selectors_.reserve(static_cast<std::size_t>(gcnf.numGroups()));
    group_of_var_.assign(static_cast<std::size_t>(gcnf.numVars()), -1);
    for (int g = 0; g < gcnf.numGroups(); ++g) {
      const Lit sel = posLit(solver_.newVar());
      selectors_.push_back(sel);
      group_of_var_.push_back(g);
      for (const Clause& c : gcnf.group(g)) {
        Clause withSel = c;
        withSel.push_back(sel);
        static_cast<void>(solver_.addClause(withSel));
      }
    }
  }

  [[nodiscard]] const Solver& solver() const { return solver_; }

  /// Solves with exactly the groups in `groups` enforced.
  [[nodiscard]] lbool solve(std::span<const int> groups) {
    return solver_.solve(enforcing(groups));
  }

  /// The groups of the last failing-assumption core, sorted.
  [[nodiscard]] std::vector<int> coreGroups() const {
    return groupsOf(solver_.core());
  }

  /// Fixpoint-trims a failing group set via core_trim on the
  /// corresponding assumption literals.
  [[nodiscard]] std::vector<int> trim(std::span<const int> groups,
                                      int rounds) {
    return groupsOf(trimCore(solver_, enforcing(groups), rounds));
  }

 private:
  [[nodiscard]] std::vector<Lit> enforcing(
      std::span<const int> groups) const {
    std::vector<Lit> assumptions;
    assumptions.reserve(groups.size());
    for (const int g : groups) {
      assumptions.push_back(~selectors_[static_cast<std::size_t>(g)]);
    }
    return assumptions;
  }

  [[nodiscard]] std::vector<int> groupsOf(std::span<const Lit> lits) const {
    std::vector<int> out;
    out.reserve(lits.size());
    for (const Lit p : lits) {
      const int g = group_of_var_[static_cast<std::size_t>(p.var())];
      assert(g >= 0);
      out.push_back(g);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Solver solver_;
  std::vector<Lit> selectors_;
  std::vector<int> group_of_var_;  // -1: original variable
};

[[nodiscard]] bool satisfied(const Clause& c, const Assignment& a) {
  return std::any_of(c.begin(), c.end(), [&a](Lit p) {
    return applySign(a[static_cast<std::size_t>(p.var())], p) == lbool::True;
  });
}

[[nodiscard]] bool satisfiesAll(const std::vector<Clause>& clauses,
                                const Assignment& a) {
  return std::all_of(clauses.begin(), clauses.end(),
                     [&a](const Clause& c) { return satisfied(c, a); });
}

/// The only group of `candidate` that `a` falsifies; -1 when `a`
/// falsifies none or several.
[[nodiscard]] int soleFalsified(const GroupCnf& gcnf,
                                std::span<const int> candidate,
                                const Assignment& a) {
  int found = -1;
  for (const int g : candidate) {
    if (satisfiesAll(gcnf.group(g), a)) continue;
    if (found >= 0) return -1;
    found = g;
  }
  return found;
}

/// Recursive model rotation (Belov & Marques-Silva): `a` satisfies the
/// background and falsifies exactly group `seed` among `candidate`.
/// Flipping one variable of a falsified clause of that group may give an
/// assignment that still satisfies the background and falsifies exactly
/// one group h among `candidate`; then h is critical too, and rotation
/// continues from it. Marks into `critical`.
void rotateModels(const GroupCnf& gcnf, std::span<const int> candidate,
                  int seed, Assignment a, std::vector<char>& critical,
                  std::int64_t& marked) {
  struct Frame {
    int group;
    Assignment assignment;
  };
  std::vector<Frame> stack;
  stack.push_back({seed, std::move(a)});
  while (!stack.empty()) {
    Frame fr = std::move(stack.back());
    stack.pop_back();
    for (const Clause& c : gcnf.group(fr.group)) {
      if (satisfied(c, fr.assignment)) continue;
      for (const Lit p : c) {
        Assignment flipped = fr.assignment;
        auto& cell = flipped[static_cast<std::size_t>(p.var())];
        cell = ~cell;
        if (!satisfiesAll(gcnf.background(), flipped)) continue;
        const int h = soleFalsified(gcnf, candidate, flipped);
        if (h >= 0 && critical[static_cast<std::size_t>(h)] == 0) {
          critical[static_cast<std::size_t>(h)] = 1;
          ++marked;
          stack.push_back({h, std::move(flipped)});
        }
      }
    }
  }
}

}  // namespace

MusResult extractMus(const GroupCnf& gcnf, const MusOptions& options) {
  SelectorInstance inst(gcnf, options.sat, options.budget);
  std::int64_t rotated = 0;
  // `groups` comes sorted: from coreGroups() or trim().
  const auto finish = [&inst, &rotated](std::vector<int> groups,
                                        bool minimal) {
    return MusResult{std::move(groups), minimal,
                     inst.solver().stats().solves, rotated};
  };

  std::vector<int> candidate(static_cast<std::size_t>(gcnf.numGroups()));
  std::iota(candidate.begin(), candidate.end(), 0);
  if (inst.solve(candidate) != lbool::False) return finish({}, false);
  candidate = inst.coreGroups();
  if (options.trimRounds > 0) {
    candidate = inst.trim(candidate, options.trimRounds);
  }

  // Invariant: background ∪ `candidate` is unsatisfiable; groups marked
  // critical belong to every MUS inside it.
  std::vector<char> critical(static_cast<std::size_t>(gcnf.numGroups()), 0);
  std::size_t pos = 0;
  while (pos < candidate.size()) {
    const int g = candidate[pos];
    if (critical[static_cast<std::size_t>(g)] != 0) {
      ++pos;
      continue;
    }
    std::vector<int> test;
    test.reserve(candidate.size() - 1);
    for (const int other : candidate) {
      if (other != g) test.push_back(other);
    }
    const lbool st = inst.solve(test);
    if (st == lbool::Undef) return finish(std::move(candidate), false);
    if (st == lbool::False) {
      // Group-set refinement: adopt the (usually much smaller) core and
      // restart the scan over it.
      candidate = inst.coreGroups();
      pos = 0;
      continue;
    }
    // SAT: `g` is a transition group — critical. The model falsifies
    // exactly `g` among `candidate`, the precondition for rotation.
    critical[static_cast<std::size_t>(g)] = 1;
    if (options.modelRotation) {
      const std::vector<lbool>& model = inst.solver().model();
      rotateModels(gcnf, candidate, g,
                   Assignment(model.begin(), model.begin() + gcnf.numVars()),
                   critical, rotated);
    }
    ++pos;
  }
  return finish(std::move(candidate), true);
}

bool subsetUnsat(const GroupCnf& gcnf, std::span<const int> groups,
                 const Budget& budget) {
  Solver solver;
  solver.setBudget(budget);
  for (Var v = 0; v < gcnf.numVars(); ++v) static_cast<void>(solver.newVar());
  for (const Clause& c : gcnf.background()) {
    if (!solver.addClause(c)) return true;
  }
  for (const int g : groups) {
    for (const Clause& c : gcnf.group(g)) {
      if (!solver.addClause(c)) return true;
    }
  }
  return solver.solve() == lbool::False;
}

bool isMus(const GroupCnf& gcnf, std::span<const int> groups,
           const Budget& budget) {
  if (!subsetUnsat(gcnf, groups, budget)) return false;
  std::vector<int> test;
  for (std::size_t skip = 0; skip < groups.size(); ++skip) {
    test.clear();
    for (std::size_t j = 0; j < groups.size(); ++j) {
      if (j != skip) test.push_back(groups[j]);
    }
    if (subsetUnsat(gcnf, test, budget)) return false;
  }
  return true;
}

}  // namespace msu
