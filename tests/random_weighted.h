/// \file random_weighted.h
/// \brief The random weighted partial MaxSAT instances the engine tests
///        check against the brute-force oracle.

#pragma once

#include <cstdint>
#include <random>

#include "cnf/wcnf.h"

namespace msu {

/// Random weighted partial MaxSAT instance small enough for the oracle:
/// 5-9 variables, 2-6 hard clauses of length 2-3 (none without
/// `withHards`) and 10-27 soft clauses of length 1-3 with weights in
/// [1, maxWeight].
inline WcnfFormula randomWeighted(std::uint64_t seed, Weight maxWeight,
                                  bool withHards = true) {
  std::mt19937_64 rng(seed);
  const int numVars = 5 + static_cast<int>(rng() % 5);
  WcnfFormula w(numVars);
  const int numHard = withHards ? 2 + static_cast<int>(rng() % 5) : 0;
  const int numSoft = 10 + static_cast<int>(rng() % 18);
  auto randClause = [&](int len) {
    Clause c;
    for (int k = 0; k < len; ++k) {
      const Var v =
          static_cast<Var>(rng() % static_cast<std::uint64_t>(numVars));
      c.push_back(mkLit(v, (rng() & 1) != 0));
    }
    return c;
  };
  for (int i = 0; i < numHard; ++i) {
    w.addHard(randClause(2 + static_cast<int>(rng() % 2)));
  }
  for (int i = 0; i < numSoft; ++i) {
    const Weight weight =
        1 + static_cast<Weight>(rng() % static_cast<std::uint64_t>(maxWeight));
    w.addSoft(randClause(1 + static_cast<int>(rng() % 3)), weight);
  }
  return w;
}

}  // namespace msu
