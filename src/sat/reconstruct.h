/// \file reconstruct.h
/// \brief Model-reconstruction witness stack for bounded variable
///        elimination (elimination.cpp).
///
/// Eliminating a variable removes every clause over it from the search,
/// which is satisfiability-preserving but not model-preserving: a model
/// of the reduced formula says nothing about the eliminated variable,
/// and may even falsify some of the removed clauses unless the variable
/// is given the right value. The classic fix (SatELite; CaDiCaL's
/// "extender") is a *witness stack*: every elimination pushes, in
/// order, entries of the form
///
///     (witness literal w, clause C)   with   w ∈ C
///
/// meaning "if C is not already satisfied by the model built so far,
/// flip the model so that w holds". Replaying the stack from the most
/// recent entry to the oldest extends any model of the current database
/// to a model of every formula the solver ever held.
///
/// Bounded variable elimination of v pushes all removed clauses
/// containing v with witness v, then all containing ¬v with witness ¬v.
/// At most one polarity's clauses can be unsatisfied by a model of the
/// resolvents (two unsatisfied clauses of opposite polarity would have
/// a false resolvent), so the flips never conflict.
///
/// Replay order matters and is what makes successive eliminations
/// compose: an entry's clause may mention variables eliminated *later*;
/// their entries sit above it on the stack and have already fixed those
/// variables by the time the older entry is evaluated.
///
/// Every entry is *restorable*: when the solver must bring an
/// eliminated variable back (a new clause or an assumption names it),
/// its entries are extracted — in push order, preserving the rest of
/// the stack — and their clauses re-added to the database.
///
/// The solver guarantees (see the reconstruction contract in solver.h)
/// that no witness entry ever references a scope-owned or activator
/// variable, so scope retirement and variable recycling never
/// invalidate the stack.

#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/literal.h"

namespace msu {

/// Stack of (witness literal, clause) entries; see the file comment.
class WitnessStack {
 public:
  /// Pushes one witness entry. `clause` must contain `witness`.
  void pushClause(Lit witness, std::span<const Lit> clause) {
    Entry e;
    e.witness = witness;
    e.begin = static_cast<std::uint32_t>(lits_.size());
    e.len = static_cast<std::uint32_t>(clause.size());
    lits_.insert(lits_.end(), clause.begin(), clause.end());
    entries_.push_back(e);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Extends `model` (indexed by variable) to satisfy every removed
  /// clause: replays the stack newest-to-oldest, flipping each witness
  /// whose clause is not already satisfied. An undefined model value
  /// never counts as satisfying a literal.
  void extend(std::vector<lbool>& model) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      bool sat = false;
      for (std::uint32_t k = 0; k < it->len; ++k) {
        const Lit p = lits_[it->begin + k];
        if (applySign(model[static_cast<std::size_t>(p.var())], p) ==
            lbool::True) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        const Lit w = it->witness;
        model[static_cast<std::size_t>(w.var())] =
            toLbool(w.positive());
      }
    }
  }

  /// Moves every entry whose witness is over `v` into `out`
  /// (clauses in push order) and compacts the remaining entries without
  /// reordering them. Used when an eliminated variable re-enters the
  /// database.
  void extractRestorable(Var v, std::vector<std::vector<Lit>>& out) {
    std::vector<Lit> freshLits;
    std::vector<Entry> freshEntries;
    freshLits.reserve(lits_.size());
    freshEntries.reserve(entries_.size());
    for (const Entry& e : entries_) {
      const auto clause =
          std::span<const Lit>(lits_.data() + e.begin, e.len);
      if (e.witness.var() == v) {
        out.emplace_back(clause.begin(), clause.end());
        continue;
      }
      Entry kept = e;
      kept.begin = static_cast<std::uint32_t>(freshLits.size());
      freshLits.insert(freshLits.end(), clause.begin(), clause.end());
      freshEntries.push_back(kept);
    }
    lits_ = std::move(freshLits);
    entries_ = std::move(freshEntries);
  }

  /// True iff any entry (witness or clause literal) references a marked
  /// variable. Debug aid: retirement asserts the recycled variables are
  /// absent from the stack before recycling them.
  [[nodiscard]] bool referencesAny(const std::vector<char>& marked) const {
    for (const Entry& e : entries_) {
      if (marked[static_cast<std::size_t>(e.witness.var())] != 0) return true;
      for (std::uint32_t k = 0; k < e.len; ++k) {
        const Lit p = lits_[e.begin + k];
        if (marked[static_cast<std::size_t>(p.var())] != 0) return true;
      }
    }
    return false;
  }

  /// Backing-store footprint, for the solver's memory accounting.
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(lits_.capacity() * sizeof(Lit) +
                                     entries_.capacity() * sizeof(Entry));
  }

  void clear() {
    lits_.clear();
    entries_.clear();
  }

 private:
  struct Entry {
    Lit witness;
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };

  std::vector<Lit> lits_;
  std::vector<Entry> entries_;
};

}  // namespace msu
