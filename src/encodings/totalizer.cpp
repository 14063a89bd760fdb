#include "encodings/totalizer.h"

#include <algorithm>
#include <cassert>

namespace msu {

Totalizer::Totalizer(ClauseSink& sink, std::span<const Lit> inputs,
                     bool bothPolarities)
    : sink_(&sink), both_(bothPolarities) {
  outputs_ = build(inputs);
}

void Totalizer::addInputs(std::span<const Lit> inputs) {
  if (inputs.empty()) return;
  std::vector<Lit> sub = build(inputs);
  if (outputs_.empty()) {
    outputs_ = std::move(sub);
  } else {
    outputs_ = merge(outputs_, sub);
  }
}

std::vector<Lit> Totalizer::build(std::span<const Lit> inputs) {
  if (inputs.empty()) return {};
  if (inputs.size() == 1) return {inputs[0]};
  const std::size_t half = inputs.size() / 2;
  const std::vector<Lit> left = build(inputs.subspan(0, half));
  const std::vector<Lit> right = build(inputs.subspan(half));
  return merge(left, right);
}

std::vector<Lit> Totalizer::merge(const std::vector<Lit>& left,
                                  const std::vector<Lit>& right) {
  const int p = static_cast<int>(left.size());
  const int q = static_cast<int>(right.size());
  std::vector<Lit> out =
      directMerge(*sink_, left, right, p + q - 1, /*upwardOutputs=*/false);
  if (both_) {
    // Reverse: out>=i+j+1 implies left>=i+1 or right>=j+1.
    for (int i = 0; i <= p; ++i) {
      for (int j = 0; j <= q; ++j) {
        if (i + j == p + q) continue;
        std::vector<Lit> clause;
        if (i < p) clause.push_back(left[i]);
        if (j < q) clause.push_back(right[j]);
        clause.push_back(~out[static_cast<std::size_t>(i + j)]);
        sink_->addClause(clause);
      }
    }
  }
  return out;
}

std::vector<Lit> directMerge(ClauseSink& sink, std::span<const Lit> a,
                             std::span<const Lit> b, int k,
                             bool upwardOutputs) {
  const int p = static_cast<int>(a.size());
  const int q = static_cast<int>(b.size());
  const int m = std::min(p + q, k + 1);
  std::vector<Lit> out(static_cast<std::size_t>(std::max(m, 0)));
  for (Lit& r : out) {
    r = posLit(upwardOutputs ? sink.newUpwardVar() : sink.newVar());
  }

  // Forward: a>=i and b>=j imply out>=i+j.
  std::vector<Lit> clause;
  for (int i = 0; i <= std::min(p, m); ++i) {
    for (int j = i == 0 ? 1 : 0; j <= std::min(q, m - i); ++j) {
      clause.clear();
      if (i > 0) clause.push_back(~a[static_cast<std::size_t>(i - 1)]);
      if (j > 0) clause.push_back(~b[static_cast<std::size_t>(j - 1)]);
      clause.push_back(out[static_cast<std::size_t>(i + j - 1)]);
      sink.addClause(clause);
    }
  }
  return out;
}

}  // namespace msu
