#include "encodings/pb.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace msu {
namespace {

/// Rewrites terms so every coefficient is positive; adjusts the bound.
std::vector<PbTerm> normalize(std::span<const PbTerm> terms, Weight& bound) {
  std::vector<PbTerm> out;
  out.reserve(terms.size());
  for (const PbTerm& t : terms) {
    if (t.coeff == 0) continue;
    if (t.coeff > 0) {
      out.push_back(t);
    } else {
      // c*x == c + (-c)*(~x)
      out.push_back(PbTerm{~t.lit, -t.coeff});
      bound -= t.coeff;
    }
  }
  return out;
}

/// Tseitin definition s <-> a XOR b XOR c.
Lit defineXor3(ClauseSink& sink, Lit a, Lit b, Lit c) {
  const Lit s = posLit(sink.newVar());
  sink.addClause({~a, ~b, ~c, s});
  sink.addClause({~a, ~b, c, ~s});
  sink.addClause({~a, b, ~c, ~s});
  sink.addClause({~a, b, c, s});
  sink.addClause({a, ~b, ~c, ~s});
  sink.addClause({a, ~b, c, s});
  sink.addClause({a, b, ~c, s});
  sink.addClause({a, b, c, ~s});
  return s;
}

/// Tseitin definition s <-> a XOR b.
Lit defineXor2(ClauseSink& sink, Lit a, Lit b) {
  const Lit s = posLit(sink.newVar());
  sink.addClause({~a, ~b, ~s});
  sink.addClause({~a, b, s});
  sink.addClause({a, ~b, s});
  sink.addClause({a, b, ~s});
  return s;
}

/// Tseitin definition m <-> majority(a, b, c).
Lit defineMajority(ClauseSink& sink, Lit a, Lit b, Lit c) {
  const Lit m = posLit(sink.newVar());
  sink.addClause({~a, ~b, m});
  sink.addClause({~a, ~c, m});
  sink.addClause({~b, ~c, m});
  sink.addClause({a, b, ~m});
  sink.addClause({a, c, ~m});
  sink.addClause({b, c, ~m});
  return m;
}

/// Tseitin definition o <-> a AND b.
Lit defineAnd2(ClauseSink& sink, Lit a, Lit b) {
  const Lit o = posLit(sink.newVar());
  sink.addClause({~o, a});
  sink.addClause({~o, b});
  sink.addClause({~a, ~b, o});
  return o;
}

}  // namespace

const char* toString(PbEncoding enc) {
  switch (enc) {
    case PbEncoding::Bdd:
      return "pb-bdd";
    case PbEncoding::Adder:
      return "pb-adder";
  }
  return "?";
}

Lit buildPbLeqBdd(ClauseSink& sink, std::span<const PbTerm> terms,
                  Weight bound) {
  const Lit tru = sink.trueLit();
  std::vector<PbTerm> ts(terms.begin(), terms.end());
  // Large coefficients first gives the smallest counter DAGs; equal
  // coefficients keep their input order.
  std::stable_sort(ts.begin(), ts.end(), [](const PbTerm& a, const PbTerm& b) {
    return a.coeff > b.coeff;
  });
  const int n = static_cast<int>(ts.size());
  std::vector<Weight> suffix(static_cast<std::size_t>(n) + 1, 0);
  for (int i = n - 1; i >= 0; --i) {
    assert(ts[static_cast<std::size_t>(i)].coeff > 0);
    suffix[i] = suffix[i + 1] + ts[static_cast<std::size_t>(i)].coeff;
  }
  // Node (i, b) stands for "terms i.. sum to at most b". Nodes are built
  // post-order (hi child, lo child, then the node) on an explicit stack:
  // the diagram is as deep as there are terms.
  struct Frame {
    int i;
    Weight b;
    int childrenVisited;
    Lit hi;
  };
  std::map<std::pair<int, Weight>, Lit> memo;
  std::vector<Frame> stack;
  Lit done = tru;  // literal of the node settled last
  // Settles node (i, b) into `done` if it is a leaf or built already;
  // pushes it otherwise.
  const auto visit = [&](int i, Weight b) {
    if (b < 0) {
      done = ~tru;
    } else if (suffix[i] <= b) {
      done = tru;
    } else if (const auto it = memo.find({i, b}); it != memo.end()) {
      done = it->second;
    } else {
      stack.push_back({i, b, 0, kUndefLit});
    }
  };
  visit(0, bound);
  while (!stack.empty()) {
    Frame& f = stack.back();
    const PbTerm& t = ts[static_cast<std::size_t>(f.i)];
    if (f.childrenVisited == 0) {
      f.childrenVisited = 1;
      visit(f.i + 1, f.b - t.coeff);  // may push: `f` dangles after this
      continue;
    }
    if (f.childrenVisited == 1) {
      f.childrenVisited = 2;
      f.hi = done;
      visit(f.i + 1, f.b);
      continue;
    }
    const Lit hi = f.hi;
    const Lit lo = done;
    Lit v;
    if (hi == lo) {
      v = hi;
    } else {
      v = posLit(sink.newVar());
      const Lit x = t.lit;
      sink.addClause({~v, ~x, hi});
      sink.addClause({~v, x, lo});
      sink.addClause({v, ~x, ~hi});
      sink.addClause({v, x, ~lo});
      sink.addClause({~hi, ~lo, v});
      sink.addClause({hi, lo, ~v});
    }
    memo.emplace(std::make_pair(f.i, f.b), v);
    stack.pop_back();
    done = v;
  }
  return done;
}

std::vector<Lit> buildAdderNetwork(ClauseSink& sink,
                                   std::span<const PbTerm> terms) {
  // Bucket literals by the bits of their coefficients.
  std::vector<std::vector<Lit>> buckets;
  for (const PbTerm& t : terms) {
    assert(t.coeff > 0);
    Weight c = t.coeff;
    int bit = 0;
    while (c != 0) {
      if ((c & 1) != 0) {
        if (static_cast<std::size_t>(bit) >= buckets.size()) {
          buckets.resize(static_cast<std::size_t>(bit) + 1);
        }
        buckets[static_cast<std::size_t>(bit)].push_back(t.lit);
      }
      c >>= 1;
      ++bit;
    }
  }
  // Reduce each bucket with full/half adders, pushing carries upward.
  // Note: buckets may grow (and reallocate) while a bit is processed, so
  // all accesses are by index.
  std::vector<Lit> result;
  for (std::size_t bit = 0; bit < buckets.size(); ++bit) {
    while (buckets[bit].size() >= 3) {
      const Lit a = buckets[bit][buckets[bit].size() - 1];
      const Lit b = buckets[bit][buckets[bit].size() - 2];
      const Lit c = buckets[bit][buckets[bit].size() - 3];
      buckets[bit].resize(buckets[bit].size() - 3);
      const Lit sum = defineXor3(sink, a, b, c);
      const Lit carry = defineMajority(sink, a, b, c);
      if (bit + 1 >= buckets.size()) buckets.resize(bit + 2);
      buckets[bit].push_back(sum);
      buckets[bit + 1].push_back(carry);
    }
    if (buckets[bit].size() == 2) {
      const Lit a = buckets[bit][0];
      const Lit b = buckets[bit][1];
      buckets[bit].clear();
      const Lit sum = defineXor2(sink, a, b);
      const Lit carry = defineAnd2(sink, a, b);
      if (bit + 1 >= buckets.size()) buckets.resize(bit + 2);
      buckets[bit].push_back(sum);
      buckets[bit + 1].push_back(carry);
    }
    result.push_back(buckets[bit].empty() ? sink.falseLit()
                                          : buckets[bit][0]);
  }
  return result;
}

Lit buildLeqConst(ClauseSink& sink, std::span<const Lit> bits, Weight bound) {
  const Lit tru = sink.trueLit();
  if (bound < 0) return ~tru;
  // The bound dominates every representable value: trivially true.
  if (static_cast<std::size_t>(bits.size()) < 63 &&
      bound >= (Weight{1} << bits.size())) {
    return tru;
  }
  // le[i]: bits[i..0] interpreted as binary is <= bound[i..0].
  Lit le = tru;  // empty suffix
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool kbit = ((bound >> i) & 1) != 0;
    const Lit r = bits[i];
    Lit next = posLit(sink.newVar());
    if (kbit) {
      // next <-> ~r | le
      sink.addClause({r, next});
      sink.addClause({~le, next});
      sink.addClause({~next, ~r, le});
    } else {
      // next <-> ~r & le
      sink.addClause({~next, ~r});
      sink.addClause({~next, le});
      sink.addClause({r, ~le, next});
    }
    le = next;
  }
  // Bits above the bound's width must simply not exceed it; they are part
  // of `bits` and handled by the loop. If the bound has more bits than the
  // network, the remaining bound bits are all >= the value: still <=.
  return le;
}

void encodePbLeq(ClauseSink& sink, std::span<const PbTerm> terms, Weight bound,
                 PbEncoding enc, std::optional<Lit> activator) {
  Weight b = bound;
  const std::vector<PbTerm> ts = normalize(terms, b);
  auto assertLit = [&](Lit root) {
    std::vector<Lit> clause{root};
    if (activator) clause.push_back(~*activator);
    sink.addClause(clause);
  };
  Weight total = 0;
  for (const PbTerm& t : ts) total += t.coeff;
  if (total <= b) return;  // trivially true
  if (b < 0) {
    std::vector<Lit> clause;
    if (activator) clause.push_back(~*activator);
    sink.addClause(clause);
    return;
  }
  switch (enc) {
    case PbEncoding::Bdd:
      assertLit(buildPbLeqBdd(sink, ts, b));
      return;
    case PbEncoding::Adder: {
      const std::vector<Lit> bits = buildAdderNetwork(sink, ts);
      assertLit(buildLeqConst(sink, bits, b));
      return;
    }
  }
}

}  // namespace msu
