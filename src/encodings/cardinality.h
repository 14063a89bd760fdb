/// \file cardinality.h
/// \brief CNF encodings of cardinality constraints `sum(lits) <= k`.
///        The DATE'08 paper's two msu4 variants differ only here: v1
///        encodes with BDDs, v2 with Batcher odd-even sorting networks,
///        both following Eén & Sörensson's minisat+ paper (our v2 sorts
///        each batch of new blocking variables with Batcher's network
///        and joins it to the grown sorter by a direct merge cut at the
///        bound; the paper rebuilds). The third encoding, the
///        Bailleux–Boufkhad totalizer (totalizer.h), serves msu3, OLL,
///        the MCS enumerator and msu4-tot. The pairwise and ladder
///        at-most-one forms serve encodeExactlyOne (msu1).

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cnf/literal.h"
#include "encodings/sink.h"

namespace msu {

/// Available cardinality encodings.
enum class CardEncoding {
  Bdd,        ///< ITE/BDD counter encoding (msu4 v1)
  Sorter,     ///< Batcher odd-even sorting network (msu4 v2)
  Totalizer,  ///< Bailleux–Boufkhad totalizer
};

/// Short lowercase name ("bdd", "sorter", "totalizer").
[[nodiscard]] const char* toString(CardEncoding enc);

/// Encodes `sum(lits) <= k` into the sink.
///
/// If `activator` is given, every clause is guarded so the constraint is
/// only enforced when the activator literal is true (`act -> constraint`),
/// enabling assumption-based retraction. Trivial cases (k < 0 becomes
/// falsum under the activator; k >= |lits| is a no-op) are handled.
void encodeAtMost(ClauseSink& sink, std::span<const Lit> lits, int k,
                  CardEncoding enc,
                  std::optional<Lit> activator = std::nullopt);

/// Encodes "at most one of lits" with the pairwise encoding (quadratic,
/// no auxiliary variables).
void encodeAtMostOnePairwise(ClauseSink& sink, std::span<const Lit> lits,
                             std::optional<Lit> activator = std::nullopt);

/// Encodes "at most one" with the ladder/regular encoding (linear,
/// |lits|-1 auxiliary variables).
void encodeAtMostOneLadder(ClauseSink& sink, std::span<const Lit> lits,
                           std::optional<Lit> activator = std::nullopt);

/// Encodes "exactly one of lits" (at-least-one clause + pairwise AMO).
void encodeExactlyOne(ClauseSink& sink, std::span<const Lit> lits,
                      std::optional<Lit> activator = std::nullopt);

// ---------------------------------------------------------------------
// Reusable building blocks (exposed for incremental use and for tests).
// ---------------------------------------------------------------------

/// Builds a Batcher odd-even sorting network over `lits` (padded with
/// the constant false to a power of two; the padding outputs are
/// dropped). Defined in sorter.cpp, with its growth step.
///
/// Returns |lits| output literals sorted "ones first": at least `i+1`
/// true inputs force `out[i]` true, so the unit clause or assumption
/// `~out[k]` enforces `sum <= k`. Each comparator emits only its three
/// input->output clauses (Asín et al., Constraints 2011), which keeps
/// unit propagation complete for `sum <= k`; the outputs do not give
/// `sum >= k`. One network serves every bound, which is what lets msu4
/// v2 reuse it across successively tighter bounds; it grows by
/// joinSorted. Every clause's one positive literal is a wire the call
/// created, so the wires are upward variables (ClauseSink::
/// newUpwardVar), which a solver sink may leave undecided; callers
/// must name them only negatively.
[[nodiscard]] std::vector<Lit> buildSortingNetwork(ClauseSink& sink,
                                                   std::span<const Lit> lits);

/// Odd-even merges two ones-first output vectors `a` and `b` (of
/// buildSortingNetwork or of earlier merges) into |a| + |b| outputs with
/// the same contract. Both are padded with the constant false to a
/// common power of two, merged by one full Batcher merge, and the
/// padding positions dropped. It adds log2 of that power of two
/// comparator layers; joinSorted uses it only where the direct merge
/// would be larger.
[[nodiscard]] std::vector<Lit> mergeSorted(ClauseSink& sink,
                                           std::span<const Lit> a,
                                           std::span<const Lit> b);

/// Joins a sorted batch `b` to the outputs `a` of a growing sorter
/// (buildSortingNetwork or earlier joins) for bounds of `k` or less.
/// This is how msu4 v2's sorter grows in place: each batch of new
/// inputs is sorted alone, then joined by directMerge (totalizer.h)
/// cut at `k` — one layer, min(|a| + |b|, k + 1) outputs — or by
/// mergeSorted where the direct merge would emit more clauses than the
/// odd-even merge for the same sizes; the rule reads only |a|, |b|
/// and k. Either way `~out[k']` enforces `sum <= k'` for every
/// k' <= k, provided `a` was itself built for bounds of k or more;
/// positions above `k` must not serve a looser bound later. An empty
/// side returns the other unchanged. Requires k >= 0.
[[nodiscard]] std::vector<Lit> joinSorted(ClauseSink& sink,
                                          std::span<const Lit> a,
                                          std::span<const Lit> b, int k);

/// Builds the BDD (counter-DAG) for `sum(lits) <= k` and returns a
/// literal equivalent to the constraint (biconditional encoding).
[[nodiscard]] Lit buildAtMostBdd(ClauseSink& sink, std::span<const Lit> lits,
                                 int k);

}  // namespace msu
