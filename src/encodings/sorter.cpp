#include "encodings/cardinality.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "encodings/totalizer.h"

namespace msu {

namespace {

/// Forward-only comparator: hi = a|b, lo = a&b, with just the
/// input->output clauses upper-bound constraints need. Each clause's
/// one positive literal is an output, so the outputs are upward
/// variables (ClauseSink::newUpwardVar). Constants short-circuit
/// without emitting anything.
std::pair<Lit, Lit> comparator(ClauseSink& sink, Lit a, Lit b, Lit tru) {
  const Lit fls = ~tru;
  if (a == fls) return {b, fls};
  if (b == fls) return {a, fls};
  if (a == tru) return {tru, b};
  if (b == tru) return {tru, a};
  const Lit hi = posLit(sink.newUpwardVar());
  const Lit lo = posLit(sink.newUpwardVar());
  sink.addClause({~a, hi});
  sink.addClause({~b, hi});
  sink.addClause({~a, ~b, lo});
  return {hi, lo};
}

[[nodiscard]] std::vector<Lit> evensOf(const std::vector<Lit>& v) {
  std::vector<Lit> out;
  for (std::size_t i = 0; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

[[nodiscard]] std::vector<Lit> oddsOf(const std::vector<Lit>& v) {
  std::vector<Lit> out;
  for (std::size_t i = 1; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

/// Batcher's odd-even merge: `a` and `b` are sorted ones-first, of
/// equal power-of-two length n; returns their 2n merged outputs.
std::vector<Lit> oddEvenMerge(ClauseSink& sink, const std::vector<Lit>& a,
                              const std::vector<Lit>& b, Lit tru) {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  if (n == 1) {
    auto [hi, lo] = comparator(sink, a[0], b[0], tru);
    return {hi, lo};
  }
  const std::vector<Lit> d = oddEvenMerge(sink, evensOf(a), evensOf(b), tru);
  const std::vector<Lit> e = oddEvenMerge(sink, oddsOf(a), oddsOf(b), tru);
  std::vector<Lit> out(2 * n);
  out[0] = d[0];
  for (std::size_t i = 0; i + 1 < n; ++i) {
    auto [hi, lo] = comparator(sink, d[i + 1], e[i], tru);
    out[2 * i + 1] = hi;
    out[2 * i + 2] = lo;
  }
  out[2 * n - 1] = e[n - 1];
  return out;
}

/// Comparators that emit clauses when oddEvenMerge merges two
/// vectors padded to the power of two `n` whose first `p` and `q`
/// positions are not constants. A comparator emits only when neither
/// input is the constant false, and by the 0-1 principle each
/// sub-merge keeps its non-constant wires first.
std::int64_t mergeComparators(std::size_t n, int p, int q) {
  if (p + q <= 1) return 0;
  if (n == 1) return 1;
  const int evens = (p + 1) / 2 + (q + 1) / 2;
  const int odds = p / 2 + q / 2;
  return mergeComparators(n / 2, (p + 1) / 2, (q + 1) / 2) +
         mergeComparators(n / 2, p / 2, q / 2) +
         std::max(0, std::min(evens - 1, odds));
}

/// Clauses directMerge emits for sizes `p` and `q` cut at `k`.
std::int64_t directMergeClauses(int p, int q, int k) {
  const int m = std::min(p + q, k + 1);
  std::int64_t clauses = -1;  // (i, j) = (0, 0) emits nothing
  for (int i = 0; i <= std::min(p, m); ++i) clauses += std::min(q, m - i) + 1;
  return clauses;
}

}  // namespace

std::vector<Lit> buildSortingNetwork(ClauseSink& sink,
                                     std::span<const Lit> lits, int k) {
  if (lits.size() <= 1) return {lits.begin(), lits.end()};
  // The upper half is sorted first, so the emitted clauses do not
  // depend on the compiler's order of evaluating function arguments.
  const std::size_t half = lits.size() / 2;
  const std::vector<Lit> hi = buildSortingNetwork(sink, lits.subspan(half), k);
  const std::vector<Lit> lo =
      buildSortingNetwork(sink, lits.subspan(0, half), k);
  return joinSorted(sink, lo, hi, k);
}

std::vector<Lit> mergeSorted(ClauseSink& sink, std::span<const Lit> a,
                             std::span<const Lit> b) {
  if (a.empty()) return {b.begin(), b.end()};
  if (b.empty()) return {a.begin(), a.end()};
  // Both sides are padded at the tail with the constant false to a
  // common power of two, which is exact for ones-first sequences.
  const Lit tru = sink.trueLit();
  const std::size_t padded = std::bit_ceil(std::max(a.size(), b.size()));
  std::vector<Lit> left(a.begin(), a.end());
  std::vector<Lit> right(b.begin(), b.end());
  left.resize(padded, ~tru);
  right.resize(padded, ~tru);
  std::vector<Lit> out = oddEvenMerge(sink, left, right, tru);
  out.resize(a.size() + b.size());  // drop the padding positions
  return out;
}

std::vector<Lit> joinSorted(ClauseSink& sink, std::span<const Lit> a,
                            std::span<const Lit> b, int k) {
  assert(k >= 0);
  if (a.empty()) return {b.begin(), b.end()};
  if (b.empty()) return {a.begin(), a.end()};
  const int p = static_cast<int>(a.size());
  const int q = static_cast<int>(b.size());
  const std::size_t padded = std::bit_ceil(std::max(a.size(), b.size()));
  if (directMergeClauses(p, q, k) > 3 * mergeComparators(padded, p, q)) {
    return mergeSorted(sink, a, b);
  }
  return directMerge(sink, a, b, k, /*upwardOutputs=*/true);
}

}  // namespace msu
