/// \file totalizer.h
/// \brief Bailleux–Boufkhad totalizer with incremental input extension —
///        the cardinality substrate of msu3, OLL, the MCS enumerator and
///        msu4-tot — and its merge, which msu4 v2's sorter also merges
///        with.

#pragma once

#include <span>
#include <vector>

#include "cnf/literal.h"
#include "encodings/sink.h"

namespace msu {

/// Direct merge of two ones-first output vectors `a` and `b`, cut at
/// `k`: the totalizer's merge in the "at most" direction. Returns
/// min(|a| + |b|, k + 1) fresh outputs and emits one clause
/// `~a[i-1] | ~b[j-1] | out[i+j-1]` for every i <= |a|, j <= |b| with
/// 1 <= i + j <= k + 1 (a zero index drops its literal), in that
/// i-major order. With `a[i-1]` and `b[j-1]` true, `out[i+j-1]`
/// follows in one propagation step. Outputs above `k` are not emitted:
/// `~out[k']` enforces `sum <= k'` for every k' <= k. msu4 v2's sorter
/// merges this way inside and between batches wherever it is the
/// smaller merge (joinSorted in cardinality.h), with `upwardOutputs`:
/// the outputs are then upward variables (ClauseSink::newUpwardVar),
/// which holds only while no other clause names them positively. The
/// totalizer's reverse clauses do, so it merges with ordinary outputs.
[[nodiscard]] std::vector<Lit> directMerge(ClauseSink& sink,
                                           std::span<const Lit> a,
                                           std::span<const Lit> b, int k,
                                           bool upwardOutputs);

/// A totalizer over a growing set of input literals.
///
/// `outputs()[i]` is true iff at least `i+1` inputs are true (full
/// biconditional semantics), so `sum <= k` is enforced by the unit clause
/// or assumption `~outputs()[k]`, and `sum >= k` by `outputs()[k-1]`.
///
/// `addInputs` merges additional inputs into the tree without touching
/// previously emitted clauses — this is what makes the constraint usable
/// incrementally as core-guided algorithms discover new blocking
/// variables.
///
/// Scoped emission: a totalizer built inside a sink scope (see sink.h)
/// is retirable wholesale — OLL wraps each per-core totalizer in its
/// own scope and retires it once every bound is paid off. A scoped
/// totalizer must stay self-contained: do not call addInputs (or
/// reference the outputs from new clauses) after its scope has ended,
/// since retirement recycles the counting variables. The long-lived
/// trees of msu3/msu4's incremental bound managers are deliberately
/// built unscoped.
class Totalizer {
 public:
  /// Builds a totalizer over `inputs` (may be empty and extended later).
  /// When `bothPolarities` is false only the "at most" direction is
  /// emitted (smaller, sufficient for `sum <= k` assertions).
  Totalizer(ClauseSink& sink, std::span<const Lit> inputs,
            bool bothPolarities = true);

  /// Merges more inputs into the totalizer.
  void addInputs(std::span<const Lit> inputs);

  /// Output literals, ones-first; size equals the number of inputs.
  [[nodiscard]] const std::vector<Lit>& outputs() const { return outputs_; }

  /// Number of inputs added so far.
  [[nodiscard]] int numInputs() const {
    return static_cast<int>(outputs_.size());
  }

 private:
  /// Merges two sorted-count output vectors into a fresh one: the
  /// uncut directMerge, plus the reverse clauses when both_.
  [[nodiscard]] std::vector<Lit> merge(const std::vector<Lit>& left,
                                       const std::vector<Lit>& right);

  /// Builds a balanced tree over `inputs`, returning its output vector.
  [[nodiscard]] std::vector<Lit> build(std::span<const Lit> inputs);

  ClauseSink* sink_;
  bool both_;
  std::vector<Lit> outputs_;
};

}  // namespace msu
