#include "encodings/cardinality.h"

#include "encodings/pb.h"
#include "encodings/totalizer.h"

namespace msu {
namespace {

/// Adds `clause` to the sink, appending `~activator` when present.
void addGuarded(ClauseSink& sink, std::vector<Lit> clause,
                std::optional<Lit> act) {
  if (act) clause.push_back(~*act);
  sink.addClause(clause);
}

}  // namespace

const char* toString(CardEncoding enc) {
  switch (enc) {
    case CardEncoding::Bdd:
      return "bdd";
    case CardEncoding::Sorter:
      return "sorter";
    case CardEncoding::Totalizer:
      return "totalizer";
  }
  return "?";
}

Lit buildAtMostBdd(ClauseSink& sink, std::span<const Lit> lits, int k) {
  // The unit-coefficient case of the PB builder, whose stable sort keeps
  // the literals in their given order.
  std::vector<PbTerm> terms;
  terms.reserve(lits.size());
  for (Lit p : lits) terms.push_back({p, 1});
  return buildPbLeqBdd(sink, terms, k);
}

void encodeAtMost(ClauseSink& sink, std::span<const Lit> lits, int k,
                  CardEncoding enc, std::optional<Lit> activator) {
  const int n = static_cast<int>(lits.size());
  if (k >= n) return;  // trivially true
  if (k < 0) {
    // Falsum (under the activator).
    addGuarded(sink, {}, activator);
    return;
  }
  if (k == 0) {
    for (Lit p : lits) addGuarded(sink, {~p}, activator);
    return;
  }
  switch (enc) {
    case CardEncoding::Bdd: {
      const Lit root = buildAtMostBdd(sink, lits, k);
      addGuarded(sink, {root}, activator);
      return;
    }
    case CardEncoding::Sorter: {
      const std::vector<Lit> out = buildSortingNetwork(sink, lits, k);
      addGuarded(sink, {~out[static_cast<std::size_t>(k)]}, activator);
      return;
    }
    case CardEncoding::Totalizer: {
      Totalizer tot(sink, lits);
      addGuarded(sink, {~tot.outputs()[static_cast<std::size_t>(k)]},
                 activator);
      return;
    }
  }
}

void encodeAtMostOnePairwise(ClauseSink& sink, std::span<const Lit> lits,
                             std::optional<Lit> activator) {
  for (std::size_t i = 0; i < lits.size(); ++i) {
    for (std::size_t j = i + 1; j < lits.size(); ++j) {
      addGuarded(sink, {~lits[i], ~lits[j]}, activator);
    }
  }
}

void encodeAtMostOneLadder(ClauseSink& sink, std::span<const Lit> lits,
                           std::optional<Lit> activator) {
  const int n = static_cast<int>(lits.size());
  if (n <= 1) return;
  if (n == 2) {
    addGuarded(sink, {~lits[0], ~lits[1]}, activator);
    return;
  }
  // s[i]: some literal among lits[0..i] is true.
  std::vector<Lit> s(static_cast<std::size_t>(n - 1));
  for (Lit& p : s) p = posLit(sink.newVar());
  sink.addClause({~lits[0], s[0]});
  for (int i = 1; i < n - 1; ++i) {
    sink.addClause({~s[i - 1], s[i]});
    sink.addClause({~lits[i], s[i]});
  }
  for (int i = 1; i < n; ++i) {
    addGuarded(sink, {~lits[i], ~s[i - 1]}, activator);
  }
}

void encodeExactlyOne(ClauseSink& sink, std::span<const Lit> lits,
                      std::optional<Lit> activator) {
  addGuarded(sink, std::vector<Lit>(lits.begin(), lits.end()), activator);
  if (lits.size() <= 8) {
    encodeAtMostOnePairwise(sink, lits, activator);
  } else {
    encodeAtMostOneLadder(sink, lits, activator);
  }
}

}  // namespace msu
