/// \file cardnet.h
/// \brief k-Cardinality networks (Asín, Nieuwenhuis, Oliveras &
///        Rodríguez-Carbonell): odd-even merge networks truncated to the
///        first k+1 outputs. msu4 v2's Batcher sorter
///        (buildSortingNetwork in cardinality.h, and mergeSorted, the
///        size fallback of its growth step) is made of the same
///        three-clause comparators and the same merge, untruncated over
///        inputs padded to a power of two; truncation keeps its
///        propagation for `sum <= k` at O(n log^2 k) instead of
///        O(n log^2 n) size — the natural "alternative encoding" the
///        paper's §5 asks to be explored. All the odd-even code, the
///        sorter's included, lives in cardnet.cpp.
///
/// Emits through the (possibly scoped) ClauseSink: msu4-cnet builds
/// each network for one bound inside an encoding scope, so superseded
/// networks are physically retired and their wires recycled (see
/// sink.h), while the sorter serves every bound and grows in place,
/// unscoped. The constant true/false wires come from the sink's
/// scope-independent trueLit().

#pragma once

#include <span>
#include <vector>

#include "cnf/literal.h"
#include "encodings/sink.h"

namespace msu {

/// Builds a cardinality network over `lits` producing the first
/// `min(|lits|, k+1)` sorted ("ones-first") outputs: `out[i]` is true if
/// at least `i+1` inputs are true, valid for `i <= k`. Enforce
/// `sum <= k` by asserting `~out[k]` (when `k < |lits|`).
///
/// Only the input->output ("at most") direction is emitted, which is
/// what upper-bound constraints need.
[[nodiscard]] std::vector<Lit> buildCardinalityNetwork(
    ClauseSink& sink, std::span<const Lit> lits, int k);

}  // namespace msu
