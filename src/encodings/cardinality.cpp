#include "encodings/cardinality.h"

#include <cassert>

#include "encodings/cardnet.h"
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

/// Sinz sequential-counter encoding of `sum(lits) <= k` (k >= 1).
/// Register definitions are emitted unguarded (they only define fresh
/// variables); the bound-violation clauses carry the guard.
void sequentialAtMost(ClauseSink& sink, std::span<const Lit> lits, int k,
                      std::optional<Lit> act) {
  const int n = static_cast<int>(lits.size());
  assert(k >= 1 && k < n);
  // s[i][j]: among lits[0..i] at least j+1 are true (j < k).
  std::vector<std::vector<Lit>> s(static_cast<std::size_t>(n - 1));
  for (auto& row : s) {
    row.resize(static_cast<std::size_t>(k));
    for (Lit& p : row) p = posLit(sink.newVar());
  }
  // Base: lits[0] -> s[0][0].
  sink.addClause({~lits[0], s[0][0]});
  for (int i = 1; i < n - 1; ++i) {
    // Carry: s[i-1][j] -> s[i][j].
    for (int j = 0; j < k; ++j) {
      sink.addClause({~s[i - 1][j], s[i][j]});
    }
    // Count: lits[i] -> s[i][0]; lits[i] & s[i-1][j-1] -> s[i][j].
    sink.addClause({~lits[i], s[i][0]});
    for (int j = 1; j < k; ++j) {
      sink.addClause({~lits[i], ~s[i - 1][j - 1], s[i][j]});
    }
  }
  // Violation: lits[i] & s[i-1][k-1] -> false, guarded.
  for (int i = 1; i < n; ++i) {
    addGuarded(sink, {~lits[i], ~s[i - 1][k - 1]}, act);
  }
}

}  // namespace

const char* toString(CardEncoding enc) {
  switch (enc) {
    case CardEncoding::Bdd:
      return "bdd";
    case CardEncoding::Sorter:
      return "sorter";
    case CardEncoding::Sequential:
      return "sequential";
    case CardEncoding::Totalizer:
      return "totalizer";
    case CardEncoding::Pairwise:
      return "pairwise";
    case CardEncoding::CardNet:
      return "cardnet";
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
      const std::vector<Lit> out = buildSortingNetwork(sink, lits);
      addGuarded(sink, {~out[static_cast<std::size_t>(k)]}, activator);
      return;
    }
    case CardEncoding::Sequential:
      sequentialAtMost(sink, lits, k, activator);
      return;
    case CardEncoding::Totalizer: {
      Totalizer tot(sink, lits);
      addGuarded(sink, {~tot.outputs()[static_cast<std::size_t>(k)]},
                 activator);
      return;
    }
    case CardEncoding::Pairwise:
      if (k == 1) {
        encodeAtMostOnePairwise(sink, lits, activator);
      } else {
        sequentialAtMost(sink, lits, k, activator);
      }
      return;
    case CardEncoding::CardNet: {
      const std::vector<Lit> out = buildCardinalityNetwork(sink, lits, k);
      addGuarded(sink, {~out[static_cast<std::size_t>(k)]}, activator);
      return;
    }
  }
}

void encodeAtLeast(ClauseSink& sink, std::span<const Lit> lits, int k,
                   CardEncoding enc, std::optional<Lit> activator) {
  const int n = static_cast<int>(lits.size());
  if (k <= 0) return;  // trivially true
  if (k > n) {
    addGuarded(sink, {}, activator);
    return;
  }
  if (k == 1) {
    addGuarded(sink, std::vector<Lit>(lits.begin(), lits.end()), activator);
    return;
  }
  std::vector<Lit> neg;
  neg.reserve(lits.size());
  for (Lit p : lits) neg.push_back(~p);
  encodeAtMost(sink, neg, n - k, enc, activator);
}

void encodeExactly(ClauseSink& sink, std::span<const Lit> lits, int k,
                   CardEncoding enc, std::optional<Lit> activator) {
  encodeAtMost(sink, lits, k, enc, activator);
  encodeAtLeast(sink, lits, k, enc, activator);
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

EncodingSize measureAtMost(int n, int k, CardEncoding enc) {
  CnfFormula cnf(n);
  std::vector<Lit> lits;
  lits.reserve(static_cast<std::size_t>(n));
  for (Var v = 0; v < n; ++v) lits.push_back(posLit(v));
  FormulaSink sink(cnf);
  encodeAtMost(sink, lits, k, enc);
  return EncodingSize{cnf.numClauses(), cnf.numVars() - n};
}

}  // namespace msu
