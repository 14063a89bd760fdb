/// \file cardinality.h
/// \brief CNF encodings of cardinality constraints `sum(lits) <= k`.
///        The DATE'08 paper's two msu4 variants differ only here: v1
///        encodes with BDDs, v2 with sorting networks, both following
///        Eén & Sörensson's minisat+ paper. Our v2 builds its network
///        for the bound it enforces (Asín et al.'s cardinality
///        networks), merging by the direct merge or Batcher's odd-even
///        merge, whichever is smaller, and grows it by the same rule
///        as new blocking variables arrive; the paper rebuilds a full
///        Batcher network. The third encoding, the Bailleux–Boufkhad
///        totalizer (totalizer.h), serves msu3, OLL, the MCS enumerator
///        and msu4-tot. The pairwise and ladder at-most-one forms serve
///        encodeExactlyOne (msu1).

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
  Sorter,     ///< sorting network built for its bound (msu4 v2)
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

/// Builds a sorting network over `lits` for bounds of `k` or less:
/// each half is sorted for those bounds and the two are joined by
/// joinSorted cut at `k`. Defined in sorter.cpp, with its merges.
///
/// Returns output literals sorted "ones first", at least
/// min(|lits|, k + 1) of them. For every i <= k, at least `i+1` true
/// inputs force `out[i]` true, so the unit clause or assumption
/// `~out[k']` enforces `sum <= k'` for every k' <= k; positions above
/// `k` must not serve a looser bound. Every clause is an input->output
/// clause (Asín et al., Constraints 2011), which keeps unit propagation
/// complete for those bounds; the outputs do not give `sum >= k`. One
/// network serves every bound up to `k`, which is what lets msu4 v2
/// reuse it across successively tighter bounds; it grows by
/// joinSorted. Every clause's one positive literal is a wire the call
/// created, so the wires are upward variables (ClauseSink::
/// newUpwardVar), which a solver sink may leave undecided; callers
/// must name them only negatively. With `k >= |lits| - 1` every output
/// is valid. Requires k >= 0 when |lits| > 1.
[[nodiscard]] std::vector<Lit> buildSortingNetwork(ClauseSink& sink,
                                                   std::span<const Lit> lits,
                                                   int k);

/// Odd-even merges two ones-first output vectors `a` and `b` (of
/// buildSortingNetwork or of earlier merges) into |a| + |b| outputs,
/// valid for every bound both sides are valid for. Both are padded
/// with the constant false to a common power of two, merged by one
/// full Batcher merge, and the padding positions dropped. It adds
/// log2 of that power of two comparator layers; joinSorted uses it
/// only where the direct merge would be larger.
[[nodiscard]] std::vector<Lit> mergeSorted(ClauseSink& sink,
                                           std::span<const Lit> a,
                                           std::span<const Lit> b);

/// Joins two sorted vectors `a` and `b` (of buildSortingNetwork or
/// earlier joins) for bounds of `k` or less. This one rule merges
/// inside buildSortingNetwork and between the batches of msu4 v2's
/// growing sorter: directMerge (totalizer.h) cut at `k` — one layer,
/// min(|a| + |b|, k + 1) outputs — or mergeSorted where the direct
/// merge would emit more clauses than the odd-even merge for the same
/// sizes; the rule reads only |a|, |b| and k. Either way `~out[k']`
/// enforces `sum <= k'` for every k' <= k, provided both sides were
/// built for bounds of k or more; positions above `k` must not serve a
/// looser bound later. An empty side returns the other unchanged.
/// Requires k >= 0.
[[nodiscard]] std::vector<Lit> joinSorted(ClauseSink& sink,
                                          std::span<const Lit> a,
                                          std::span<const Lit> b, int k);

/// Builds the BDD (counter-DAG) for `sum(lits) <= k` and returns a
/// literal equivalent to the constraint (biconditional encoding).
[[nodiscard]] Lit buildAtMostBdd(ClauseSink& sink, std::span<const Lit> lits,
                                 int k);

}  // namespace msu
