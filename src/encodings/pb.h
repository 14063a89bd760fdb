/// \file pb.h
/// \brief CNF encodings of pseudo-Boolean constraints
///        `sum(coeff_i * lit_i) <= bound`, following the minisat+
///        translation toolkit (Eén & Sörensson, JSAT'06) the paper's PBO
///        baseline relies on: BDD decomposition and binary adder networks
///        with a lexicographic comparator. (minisat+'s mixed-radix sorter
///        translation is intentionally out of scope; the cardinality
///        sorter in cardinality.h covers the unit-coefficient case.)
///
/// Emits through the (possibly scoped) ClauseSink: the weighted linear
/// search (core/linear_search.h) wraps each successive
/// `sum <= upper-1` constraint in an encoding scope and retires the
/// previous one, so the adder/BDD auxiliaries of stale bounds are
/// physically deleted and recycled (see sink.h). The cardinality BDD
/// (buildAtMostBdd) is this file's BDD builder on unit coefficients.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cnf/literal.h"
#include "cnf/wcnf.h"
#include "encodings/sink.h"

namespace msu {

/// One term of a pseudo-Boolean constraint.
struct PbTerm {
  Lit lit;
  Weight coeff = 1;
};

/// Available PB encodings.
enum class PbEncoding {
  Bdd,    ///< BDD decomposition (pseudo-polynomial, strong propagation)
  Adder,  ///< binary adder network + lexicographic comparator (compact)
};

/// Short lowercase name.
[[nodiscard]] const char* toString(PbEncoding enc);

/// Encodes `sum(terms) <= bound` into the sink. Negative coefficients are
/// normalized away (`c*x == c + (-c)*(~x)`). If `activator` is given the
/// constraint is guarded (`act -> constraint`).
void encodePbLeq(ClauseSink& sink, std::span<const PbTerm> terms,
                 Weight bound, PbEncoding enc,
                 std::optional<Lit> activator = std::nullopt);

/// Builds the BDD for `sum(terms) <= bound` (positive coefficients) and
/// returns a literal equivalent to the constraint.
[[nodiscard]] Lit buildPbLeqBdd(ClauseSink& sink,
                                std::span<const PbTerm> terms, Weight bound);

/// Builds a binary adder network for `sum(terms)` (positive coefficients)
/// and returns the result bits, least significant first.
[[nodiscard]] std::vector<Lit> buildAdderNetwork(
    ClauseSink& sink, std::span<const PbTerm> terms);

/// Builds a literal implying `bits <= bound` (unsigned binary compare,
/// bits least significant first).
[[nodiscard]] Lit buildLeqConst(ClauseSink& sink, std::span<const Lit> bits,
                                Weight bound);

}  // namespace msu
