/// \file mus.h
/// \brief Minimal Unsatisfiable Subformula (MUS) extraction. The DATE'08
///        paper builds msu4 on the relationship between unsatisfiable
///        cores and MaxSAT (§2.3, citing Kullmann, de la Banda et al. and
///        Liffiton & Sakallah); this module implements the core-based
///        side of that relationship as a first-class library feature.
///
/// The unit of minimization is a clause *group*. In the design-debugging
/// flow that motivates the paper (Safarpour et al. [24]), clauses come
/// in groups — all CNF clauses of one gate, one assertion, one
/// constraint block — and the question is which groups form a minimal
/// conflict with the background (always-on clauses). A clause-level MUS
/// is the special case of one group per clause and no background:
/// `extractMus(GroupCnf::perClause(cnf))`.
///
/// One extractor, deletion-based over one selector per group, driven by
/// the same assumption-based CDCL substrate the MaxSAT engines use:
/// core_trim's trimCore shrinks the initial core, every UNSAT answer
/// refines the candidate to the groups of its core, and every SAT answer
/// marks further groups critical by recursive model rotation (Belov &
/// Marques-Silva, FMCAD'11), typically far fewer calls than groups.
///
/// The result is a set of group ids whose union with the background is
/// unsatisfiable on completion and *minimal* (every proper subset
/// satisfiable with the background) unless the budget ran out first.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "sat/budget.h"
#include "sat/solver.h"

namespace msu {

/// A CNF formula partitioned into background clauses (always enforced)
/// and numbered clause groups (the units of minimization).
class GroupCnf {
 public:
  GroupCnf() = default;
  explicit GroupCnf(int numVars) : num_vars_(numVars) {}

  /// One group per clause of `cnf`, in clause order, and no background:
  /// group ids are clause indices.
  [[nodiscard]] static GroupCnf perClause(const CnfFormula& cnf);

  [[nodiscard]] int numVars() const { return num_vars_; }
  [[nodiscard]] int numGroups() const {
    return static_cast<int>(groups_.size());
  }

  Var newVar() { return num_vars_++; }
  void ensureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Adds a clause to the background (never a candidate for removal).
  void addBackground(std::span<const Lit> lits);
  void addBackground(std::initializer_list<Lit> lits) {
    addBackground(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Creates a new empty group, returning its id.
  int addGroup() {
    groups_.emplace_back();
    return numGroups() - 1;
  }

  /// Adds a clause to group `g`.
  void addToGroup(int g, std::span<const Lit> lits);
  void addToGroup(int g, std::initializer_list<Lit> lits) {
    addToGroup(g, std::span<const Lit>(lits.begin(), lits.size()));
  }

  [[nodiscard]] const std::vector<Clause>& background() const {
    return background_;
  }
  [[nodiscard]] const std::vector<Clause>& group(int g) const {
    return groups_[static_cast<std::size_t>(g)];
  }

 private:
  int num_vars_ = 0;
  std::vector<Clause> background_;
  std::vector<std::vector<Clause>> groups_;
};

/// Options of a MUS extraction.
struct MusOptions {
  /// Cooperative budget across all SAT calls of one extraction.
  Budget budget;

  /// Fixpoint core-trimming rounds applied to the initial core before
  /// minimization starts.
  int trimRounds = 4;

  /// Propagate criticality through model rotation (flip one variable of
  /// a falsified clause of the transition group, re-mark groups that
  /// become uniquely falsified). Saves SAT calls on structured inputs.
  bool modelRotation = true;

  /// Underlying CDCL parameters.
  Solver::Options sat;
};

/// Result of a MUS extraction.
struct MusResult {
  /// Group ids, sorted ascending (clause indices for a `perClause`
  /// input). Unsatisfiable with the background; minimal iff `minimal`.
  std::vector<int> groups;

  /// True iff minimality was established (budget did not expire).
  bool minimal = false;

  /// Diagnostics.
  std::int64_t satCalls = 0;           ///< every SAT solve, trimCore's too
  std::int64_t rotationCriticals = 0;  ///< groups marked by rotation alone

  [[nodiscard]] int size() const { return static_cast<int>(groups.size()); }
};

/// Deletion-based extraction with group-set refinement and model
/// rotation. Returns an empty, non-minimal result when background ∪ all
/// groups is satisfiable (or the budget expired before the first core);
/// when the background alone is unsatisfiable the empty group set is
/// returned with `minimal == true`.
[[nodiscard]] MusResult extractMus(const GroupCnf& gcnf,
                                   const MusOptions& options = {});

/// True iff background ∪ `groups` is unsatisfiable, decided with a CDCL
/// solve under the given budget; `false` also when the budget expires.
[[nodiscard]] bool subsetUnsat(const GroupCnf& gcnf,
                               std::span<const int> groups,
                               const Budget& budget = {});

/// True iff `groups` is a MUS of `gcnf`: unsatisfiable with the
/// background, and satisfiable with it after dropping any one group.
/// Cost is |groups|+1 SAT calls — intended for tests and assertions.
[[nodiscard]] bool isMus(const GroupCnf& gcnf, std::span<const int> groups,
                         const Budget& budget = {});

}  // namespace msu
