#include "cnf/formula.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace msu {

std::int64_t CnfFormula::numLiterals() const {
  std::int64_t n = 0;
  for (const Clause& c : clauses_) n += static_cast<std::int64_t>(c.size());
  return n;
}

std::int64_t CnfFormula::memBytesEstimate() const {
  std::int64_t bytes =
      static_cast<std::int64_t>(clauses_.capacity() * sizeof(Clause));
  for (const Clause& c : clauses_) {
    bytes += static_cast<std::int64_t>(c.heapBytes());
  }
  return bytes;
}

void CnfFormula::addClause(std::span<const Lit> lits) {
  addClause(Clause(lits.begin(), lits.end()));
}

void CnfFormula::addClause(Clause&& lits) {
  for (Lit p : lits) {
    assert(p.defined());
    ensureVars(p.var() + 1);
  }
  clauses_.push_back(std::move(lits));
}

bool CnfFormula::clauseSatisfied(int i, const Assignment& a) const {
  for (Lit p : clauses_[i]) {
    if (applySign(a[p.var()], p) == lbool::True) return true;
  }
  return false;
}

int CnfFormula::numSatisfied(const Assignment& a) const {
  int n = 0;
  for (int i = 0; i < numClauses(); ++i) {
    if (clauseSatisfied(i, a)) ++n;
  }
  return n;
}

CnfFormula CnfFormula::normalized() const {
  CnfFormula out(num_vars_);
  std::set<Clause> seen;
  for (const Clause& c : clauses_) {
    if (isTautology(c)) continue;
    Clause n = normalizedClause(c);
    if (seen.insert(n).second) out.addClause(std::move(n));
  }
  return out;
}

std::string CnfFormula::summary() const {
  std::ostringstream os;
  os << "CNF(vars=" << num_vars_ << ", clauses=" << numClauses() << ")";
  return os.str();
}

bool isTautology(std::span<const Lit> lits) {
  Clause sorted(lits.begin(), lits.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == ~sorted[i - 1]) return true;
  }
  return false;
}

Clause normalizedClause(std::span<const Lit> lits) {
  Clause out(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace msu
