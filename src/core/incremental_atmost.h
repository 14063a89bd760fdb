/// \file incremental_atmost.h
/// \brief Helpers that manage cardinality constraints across the
///        iterations of a core-guided search: growing totalizers and
///        sorting networks in place when possible, and re-encoding into
///        a fresh sink scope (retiring the predecessor physically)
///        when not.

#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "encodings/cardinality.h"
#include "encodings/sink.h"
#include "encodings/totalizer.h"

namespace msu {

/// Manages a sequence of constraints `sum(lits) <= k` where the literal
/// set only grows across calls. Two enforcement styles:
///
///  * assertAtMost — hard, monotonically tightening bounds (msu4's
///    Algorithm 1 line 30, linear search). Totalizers and sorting
///    networks grow in place with permanent bound units; a BDD lives
///    in an encoding scope whose activator the solver auto-assumes,
///    and a re-encode retires the predecessor scope (physical
///    deletion + variable recycling) instead of leaking it.
///  * assumeAtMost — assumption-enforced bounds that may also loosen
///    (msu3's lambda search). Returns the extra literal to assume this
///    solve, if any: `~out[k]` of the grown totalizer or sorter; scoped
///    structures are enforced through their activator.
///
/// The totalizer and the sorter are built unscoped: their clauses only
/// define fresh variables. New literals are counted (or sorted) on
/// their own and merged into the existing outputs instead of
/// re-encoding the whole set. The sorter sorts each batch for the
/// bound and joins it by the same rule, a merge cut at the bound
/// (joinSorted in cardinality.h): in assert mode the bound only
/// tightens, so outputs above it are never read again; assume mode
/// keeps every output. One object serves one mode.
class IncrementalAtMost {
 public:
  IncrementalAtMost(CardEncoding enc, bool reuse)
      : enc_(enc), reuse_(reuse) {}

  /// Adds clauses enforcing `sum(lits) <= k` from now on. `lits` must
  /// contain every literal passed in earlier calls (append-only
  /// growth), and the bound must not loosen. On a grown totalizer or
  /// sorter, a bound looser than an earlier one is a no-op: the sorter
  /// keeps no outputs above the tightest bound, and the earlier unit
  /// already enforces it.
  ///
  /// Bound restrictions are never emitted as raw (unguarded) clauses:
  /// even the incremental totalizer's and sorter's monotone bound units
  /// live in a scope of their own (permanent, always enforced).
  void assertAtMost(ClauseSink& sink, const std::vector<Lit>& lits, int k);

  /// Makes `sum(lits) <= k` hold for the next solve(s): grows the
  /// totalizer or sorter, or re-encodes (and retires the stale
  /// structure), and returns the literal to assume, when the encoding
  /// needs one beyond its auto-assumed activator. A trivial bound
  /// (k >= |lits|) disables the structure.
  [[nodiscard]] std::optional<Lit> assumeAtMost(ClauseSink& sink,
                                                const std::vector<Lit>& lits,
                                                int k);

  /// Number of constraints asserted/assumed so far.
  [[nodiscard]] int numAsserted() const { return num_asserted_; }

 private:
  /// Encodings whose one structure serves every bound and grows in
  /// place as literals are added.
  [[nodiscard]] bool growsInPlace() const {
    return enc_ == CardEncoding::Totalizer || enc_ == CardEncoding::Sorter;
  }

  /// Retires the live scope (if any) and forgets its structure.
  void retireCurrent(ClauseSink& sink);

  /// Grows the unscoped totalizer or sorter to cover `lits`, which
  /// must extend the literals covered so far as a prefix, and returns
  /// its outputs. A sorter growth step serves bounds of `k` or less and
  /// keeps no outputs above it.
  const std::vector<Lit>& cover(ClauseSink& sink, const std::vector<Lit>& lits,
                                int k);

  CardEncoding enc_;
  bool reuse_;
  int num_asserted_ = 0;
  std::vector<Lit> covered_;            // literal set of the cached structure
  std::vector<Lit> outputs_;            // unscoped sorter outputs
  std::optional<Totalizer> totalizer_;  // unscoped incremental totalizer
  ScopeHandle scope_;                   // live structure scope
  ScopeHandle unit_scope_;    // permanent scope for grown-structure bounds
  int scope_bound_ = -1;      // bound baked into a per-(set,k) scope
  bool scope_enforced_ = true;
  // Tightest bound asserted on the grown totalizer or sorter.
  int tightest_ = std::numeric_limits<int>::max();
};

/// Produces *assumption* literals enforcing `sum(lits) <= k` when
/// assumed — the machinery behind the binary-search engine, which must
/// both tighten and loosen bounds. The literal set is fixed at
/// construction. Output-based encodings (Sorter/Totalizer) share one
/// permanent structure; the BDD builds one disabled scope per bound,
/// whose activator is the assumption handle, and `pruneOutside` retires
/// scopes whose bound the search can no longer revisit.
class AssumableAtMost {
 public:
  AssumableAtMost(ClauseSink& sink, std::vector<Lit> lits, CardEncoding enc);

  /// Literal that enforces `sum <= k` when assumed; `nullopt` when the
  /// bound is trivial (k >= |lits|).
  [[nodiscard]] std::optional<Lit> boundLit(int k);

  /// Physically retires cached per-bound scopes with k outside
  /// [lo, hi) — sound once the search has shrunk its interval to
  /// [lo, hi). No-op for the shared output-based encodings.
  void pruneOutside(int lo, int hi);

 private:
  ClauseSink* sink_;
  std::vector<Lit> lits_;
  CardEncoding enc_;
  std::vector<Lit> outputs_;         // Sorter/Totalizer: shared outputs
  std::vector<ScopeHandle> scopes_;  // per-k bound scope (undefined = none)
};

}  // namespace msu
