/// \file formula.h
/// \brief Plain CNF formulas: a container of `Clause`s (cnf/clause.h,
///        up to four literals inline) plus light structural utilities
///        (normalization, evaluation, statistics).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnf/clause.h"
#include "cnf/literal.h"

namespace msu {

/// A complete truth assignment: `assignment[v]` is the value of variable v.
using Assignment = std::vector<lbool>;

/// A CNF formula over variables `0 .. numVars()-1`.
///
/// Invariant: every literal in every clause refers to a variable strictly
/// below `numVars()`. `addClause` grows the variable count on demand, so
/// the invariant always holds.
class CnfFormula {
 public:
  CnfFormula() = default;

  /// Creates a formula with `numVars` variables and no clauses.
  explicit CnfFormula(int numVars) : num_vars_(numVars) {}

  /// Number of variables (0-based ids `0 .. numVars()-1`).
  [[nodiscard]] int numVars() const { return num_vars_; }

  /// Number of clauses.
  [[nodiscard]] int numClauses() const {
    return static_cast<int>(clauses_.size());
  }

  /// Total number of literal occurrences.
  [[nodiscard]] std::int64_t numLiterals() const;

  /// Reserves a fresh variable and returns its id.
  Var newVar() { return num_vars_++; }

  /// Ensures at least `n` variables exist.
  void ensureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Capacity hint for bulk construction (parser front ends); clamps
  /// negatives to zero and never shrinks.
  void reserveClauses(std::int64_t n) {
    if (n > static_cast<std::int64_t>(clauses_.capacity())) {
      clauses_.reserve(static_cast<std::size_t>(n));
    }
  }

  /// Heap bytes held by the clause storage (capacities, not sizes; a
  /// clause short enough to stay inline adds nothing beyond its slot) —
  /// the formula's contribution to an end-to-end memory budget.
  [[nodiscard]] std::int64_t memBytesEstimate() const;

  /// Appends a clause (copying); grows the variable universe as needed.
  void addClause(std::span<const Lit> lits);

  /// Appends a clause (moving); grows the variable universe as needed.
  void addClause(Clause&& lits);

  /// Initializer-list convenience for tests and examples.
  void addClause(std::initializer_list<Lit> lits) {
    addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// The clause at index `i`.
  [[nodiscard]] const Clause& clause(int i) const { return clauses_[i]; }

  /// All clauses.
  [[nodiscard]] const std::vector<Clause>& clauses() const { return clauses_; }

  /// True iff the assignment satisfies clause `i`.
  [[nodiscard]] bool clauseSatisfied(int i, const Assignment& a) const;

  /// Number of clauses satisfied by a complete assignment.
  [[nodiscard]] int numSatisfied(const Assignment& a) const;

  /// True iff the assignment satisfies every clause.
  [[nodiscard]] bool satisfies(const Assignment& a) const {
    return numSatisfied(a) == numClauses();
  }

  /// Returns a copy with tautological clauses removed, duplicate literals
  /// collapsed, literals sorted, and duplicate clauses removed. Clause
  /// order of first occurrence is preserved.
  [[nodiscard]] CnfFormula normalized() const;

  /// One-line summary, e.g. "CNF(vars=10, clauses=42)".
  [[nodiscard]] std::string summary() const;

 private:
  int num_vars_ = 0;
  std::vector<Clause> clauses_;
};

/// True iff `lits` contains both a literal and its complement.
[[nodiscard]] bool isTautology(std::span<const Lit> lits);

/// Sorted, duplicate-free copy of `lits` (tautologies are *not* detected).
[[nodiscard]] Clause normalizedClause(std::span<const Lit> lits);

}  // namespace msu
