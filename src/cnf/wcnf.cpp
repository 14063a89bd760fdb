#include "cnf/wcnf.h"

#include <sstream>

namespace msu {

WcnfFormula WcnfFormula::allSoft(const CnfFormula& cnf) {
  WcnfFormula out(cnf.numVars());
  for (const Clause& c : cnf.clauses()) out.addSoft(c, 1);
  return out;
}

Weight WcnfFormula::totalSoftWeight() const {
  Weight w = 0;
  for (const SoftClause& s : soft_) w += s.weight;
  return w;
}

void WcnfFormula::addHard(std::span<const Lit> lits) {
  for (Lit p : lits) {
    assert(p.defined());
    ensureVars(p.var() + 1);
  }
  hard_.emplace_back(lits.begin(), lits.end());
}

void WcnfFormula::addSoft(std::span<const Lit> lits, Weight weight) {
  assert(weight > 0);
  for (Lit p : lits) {
    assert(p.defined());
    ensureVars(p.var() + 1);
  }
  soft_.push_back(SoftClause{Clause(lits.begin(), lits.end()), weight});
}

bool WcnfFormula::isUnweighted() const {
  for (const SoftClause& s : soft_) {
    if (s.weight != 1) return false;
  }
  return true;
}

std::optional<WcnfFormula> WcnfFormula::unweighted(
    std::int64_t maxClauses) const {
  std::int64_t total = totalSoftWeight();
  if (total > maxClauses) return std::nullopt;
  WcnfFormula out(num_vars_);
  for (const Clause& h : hard_) out.addHard(h);
  for (const SoftClause& s : soft_) {
    for (Weight k = 0; k < s.weight; ++k) out.addSoft(s.lits, 1);
  }
  return out;
}

const WcnfFormula* WcnfFormula::unitWeight(
    std::optional<WcnfFormula>& expanded, std::int64_t maxClauses) const {
  if (isUnweighted()) return this;
  expanded = unweighted(maxClauses);
  return expanded ? &*expanded : nullptr;
}

namespace {

bool clauseSat(const Clause& c, const Assignment& a) {
  for (Lit p : c) {
    if (applySign(a[p.var()], p) == lbool::True) return true;
  }
  return false;
}

}  // namespace

std::optional<Weight> WcnfFormula::cost(const Assignment& a) const {
  for (const Clause& h : hard_) {
    if (!clauseSat(h, a)) return std::nullopt;
  }
  Weight w = 0;
  for (const SoftClause& s : soft_) {
    if (!clauseSat(s.lits, a)) w += s.weight;
  }
  return w;
}

std::optional<int> WcnfFormula::numSoftSatisfied(const Assignment& a) const {
  for (const Clause& h : hard_) {
    if (!clauseSat(h, a)) return std::nullopt;
  }
  int n = 0;
  for (const SoftClause& s : soft_) {
    if (clauseSat(s.lits, a)) ++n;
  }
  return n;
}

std::int64_t WcnfFormula::memBytesEstimate() const {
  std::int64_t bytes =
      static_cast<std::int64_t>(hard_.capacity() * sizeof(Clause)) +
      static_cast<std::int64_t>(soft_.capacity() * sizeof(SoftClause));
  for (const Clause& h : hard_) {
    bytes += static_cast<std::int64_t>(h.heapBytes());
  }
  for (const SoftClause& s : soft_) {
    bytes += static_cast<std::int64_t>(s.lits.heapBytes());
  }
  return bytes;
}

std::string WcnfFormula::summary() const {
  std::ostringstream os;
  os << "WCNF(vars=" << num_vars_ << ", hard=" << numHard()
     << ", soft=" << numSoft() << ")";
  return os.str();
}

}  // namespace msu
