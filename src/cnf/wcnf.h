/// \file wcnf.h
/// \brief (Partial) MaxSAT formulas: hard clauses plus weighted soft
///        clauses. The DATE'08 paper evaluates plain (all-soft, unit
///        weight) MaxSAT; the engines in this library accept hard clauses
///        too, and weights are supported via documented duplication.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literal.h"

namespace msu {

/// Weight of a soft clause. Hard clauses are represented separately, not
/// with a "top" weight.
using Weight = std::int64_t;

/// A soft clause: literals plus a positive weight.
struct SoftClause {
  Clause lits;
  Weight weight = 1;
};

/// A (partial, weighted) MaxSAT instance.
///
/// Semantics: find an assignment satisfying every hard clause that
/// minimizes the total weight of falsified soft clauses ("cost").
/// A plain MaxSAT instance has no hard clauses and unit weights.
class WcnfFormula {
 public:
  WcnfFormula() = default;

  /// Creates an instance with `numVars` variables.
  explicit WcnfFormula(int numVars) : num_vars_(numVars) {}

  /// Lifts a plain CNF formula into a plain MaxSAT instance (all clauses
  /// soft with weight 1) — the setting of the DATE'08 evaluation.
  [[nodiscard]] static WcnfFormula allSoft(const CnfFormula& cnf);

  [[nodiscard]] int numVars() const { return num_vars_; }
  [[nodiscard]] int numHard() const { return static_cast<int>(hard_.size()); }
  [[nodiscard]] int numSoft() const { return static_cast<int>(soft_.size()); }

  /// Sum of all soft weights (the worst possible cost).
  [[nodiscard]] Weight totalSoftWeight() const;

  /// Reserves a fresh variable and returns its id.
  Var newVar() { return num_vars_++; }

  /// Ensures at least `n` variables exist.
  void ensureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Appends a hard clause.
  void addHard(std::span<const Lit> lits);
  void addHard(std::initializer_list<Lit> lits) {
    addHard(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Appends a soft clause with the given (positive) weight.
  void addSoft(std::span<const Lit> lits, Weight weight = 1);
  void addSoft(std::initializer_list<Lit> lits, Weight weight = 1) {
    addSoft(std::span<const Lit>(lits.begin(), lits.size()), weight);
  }

  [[nodiscard]] const std::vector<Clause>& hard() const { return hard_; }
  [[nodiscard]] const std::vector<SoftClause>& soft() const { return soft_; }

  /// True iff every weight is 1.
  [[nodiscard]] bool isUnweighted() const;

  /// True iff there are no hard clauses (plain MaxSAT).
  [[nodiscard]] bool isPlain() const { return hard_.empty(); }

  /// Returns an equivalent unit-weight instance obtained by duplicating
  /// each soft clause `weight` times, or `nullopt` if the total number of
  /// duplicated clauses would exceed `maxClauses`. Cost values carry over
  /// unchanged.
  [[nodiscard]] std::optional<WcnfFormula> unweighted(
      std::int64_t maxClauses = 1'000'000) const;

  /// The unit-weight instance an engine that counts falsified softs
  /// runs on: this formula itself when every weight is 1 (no copy),
  /// otherwise unweighted(maxClauses), stored in `expanded`. nullptr
  /// when that expansion would exceed `maxClauses`.
  [[nodiscard]] const WcnfFormula* unitWeight(
      std::optional<WcnfFormula>& expanded,
      std::int64_t maxClauses = 1'000'000) const;

  /// Cost (total weight of falsified soft clauses) of a complete
  /// assignment, or `nullopt` if it violates a hard clause.
  [[nodiscard]] std::optional<Weight> cost(const Assignment& a) const;

  /// Paper-style objective: number of satisfied soft clauses under `a`
  /// (only meaningful for unweighted instances), or nullopt if a hard
  /// clause is violated.
  [[nodiscard]] std::optional<int> numSoftSatisfied(const Assignment& a) const;

  /// Heap bytes held by the clause storage (capacities, not sizes) —
  /// the formula's contribution to an end-to-end memory budget (see
  /// Solver::Options::external_mem_bytes).
  [[nodiscard]] std::int64_t memBytesEstimate() const;

  /// One-line summary.
  [[nodiscard]] std::string summary() const;

 private:
  int num_vars_ = 0;
  std::vector<Clause> hard_;
  std::vector<SoftClause> soft_;
};

}  // namespace msu
