#include "bnb/bnb_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "localsearch/walksat.h"

namespace msu {
namespace {

/// Internal clause representation for the branch-and-bound search.
struct BClause {
  Clause lits;
  bool hard = false;
};

class BnbEngine {
 public:
  BnbEngine(const WcnfFormula& formula, const BnbOptions& opts)
      : opts_(opts), formula_(formula), n_(formula.numVars()) {
    for (const Clause& h : formula.hard()) {
      clauses_.push_back(BClause{h, true});
    }
    for (const SoftClause& s : formula.soft()) {
      clauses_.push_back(BClause{s.lits, false});
    }
    const std::size_t m = clauses_.size();
    trueCnt_.assign(m, 0);
    falseCnt_.assign(m, 0);
    clauseDisabledStamp_.assign(m, 0);
    occ_.resize(static_cast<std::size_t>(2 * std::max(n_, 1)));
    for (std::size_t ci = 0; ci < m; ++ci) {
      for (Lit p : clauses_[ci].lits) {
        occ_[static_cast<std::size_t>(p.index())].push_back(
            static_cast<int>(ci));
      }
    }
    val_.assign(static_cast<std::size_t>(n_), lbool::Undef);
    tmpStampArr_.assign(static_cast<std::size_t>(n_), 0);
    tmpVal_.assign(static_cast<std::size_t>(n_), false);
    tmpReason_.assign(static_cast<std::size_t>(n_), -1);
    // Clauses empty from the start are permanently falsified.
    for (std::size_t ci = 0; ci < m; ++ci) {
      if (clauses_[ci].lits.empty()) {
        if (clauses_[ci].hard) {
          ++hardViol_;
        } else {
          ++falsifiedSoft_;
        }
      }
    }
  }

  MaxSatResult run() {
    MaxSatResult result;
    const Weight m = formula_.numSoft();

    if (hardViol_ > 0) {
      result.status = MaxSatStatus::UnsatisfiableHard;
      return result;
    }

    ub_ = m + 1;
    if (opts_.walksatInitialUb) {
      WalkSatOptions wo;
      wo.maxFlips = opts_.walksatFlips;
      wo.restarts = 2;
      wo.budget = opts_.budget;
      const WalkSatResult ws = walksatMaxSat(formula_, wo);
      if (ws.hardFeasible) {
        ub_ = ws.bestCost;
        bestModel_ = ws.model;
      }
    }

    // Root-level lower bound, reported when the budget runs out.
    rootLb_ = static_cast<Weight>(falsifiedSoft_);
    if (opts_.upLowerBound) rootLb_ += upUnderestimate();

    // Seed hard unit clauses.
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      if (clauses_[ci].hard && clauses_[ci].lits.size() == 1) {
        unitQueue_.push_back(static_cast<int>(ci));
      }
    }

    const bool aborted = search();

    result.iterations = nodes_;
    if (aborted) {
      result.status = MaxSatStatus::Unknown;
      result.lowerBound = rootLb_;
      result.upperBound = std::min<Weight>(ub_, m);
      if (ub_ <= m) result.model = completedBestModel();
      return result;
    }
    if (ub_ > m) {
      result.status = MaxSatStatus::UnsatisfiableHard;
      return result;
    }
    result.status = MaxSatStatus::Optimum;
    result.cost = ub_;
    result.lowerBound = ub_;
    result.upperBound = ub_;
    result.model = completedBestModel();
    return result;
  }

 private:
  // ---- assignment bookkeeping -----------------------------------------

  void assign(Lit p) {
    val_[static_cast<std::size_t>(p.var())] = toLbool(p.positive());
    trail_.push_back(p);
    for (int ci : occ_[static_cast<std::size_t>(p.index())]) {
      ++trueCnt_[static_cast<std::size_t>(ci)];
    }
    for (int ci : occ_[static_cast<std::size_t>((~p).index())]) {
      const auto cu = static_cast<std::size_t>(ci);
      ++falseCnt_[cu];
      const auto size = static_cast<int>(clauses_[cu].lits.size());
      if (falseCnt_[cu] == size) {
        if (clauses_[cu].hard) {
          ++hardViol_;
        } else {
          ++falsifiedSoft_;
        }
      } else if (clauses_[cu].hard && trueCnt_[cu] == 0 &&
                 falseCnt_[cu] == size - 1) {
        unitQueue_.push_back(ci);  // became a hard unit
      }
    }
  }

  void unassign() {
    const Lit p = trail_.back();
    trail_.pop_back();
    for (int ci : occ_[static_cast<std::size_t>(p.index())]) {
      --trueCnt_[static_cast<std::size_t>(ci)];
    }
    for (int ci : occ_[static_cast<std::size_t>((~p).index())]) {
      const auto cu = static_cast<std::size_t>(ci);
      if (falseCnt_[cu] == static_cast<int>(clauses_[cu].lits.size())) {
        if (clauses_[cu].hard) {
          --hardViol_;
        } else {
          --falsifiedSoft_;
        }
      }
      --falseCnt_[cu];
    }
    val_[static_cast<std::size_t>(p.var())] = lbool::Undef;
  }

  void undoTo(std::size_t mark) {
    while (trail_.size() > mark) unassign();
  }

  [[nodiscard]] lbool value(Lit p) const {
    return applySign(val_[static_cast<std::size_t>(p.var())], p);
  }

  // ---- hard unit propagation -------------------------------------------

  /// Propagates pending hard units; returns false on a hard conflict.
  bool propagateHard() {
    while (!unitQueue_.empty()) {
      const int ci = unitQueue_.back();
      unitQueue_.pop_back();
      const auto cu = static_cast<std::size_t>(ci);
      if (trueCnt_[cu] > 0) continue;
      const auto size = static_cast<int>(clauses_[cu].lits.size());
      if (falseCnt_[cu] != size - 1) continue;  // stale entry
      // Find the single free literal.
      Lit free = kUndefLit;
      for (Lit p : clauses_[cu].lits) {
        if (value(p) == lbool::Undef) {
          free = p;
          break;
        }
      }
      if (!free.defined()) continue;  // raced with another propagation
      assign(free);
      if (hardViol_ > 0) {
        unitQueue_.clear();
        return false;
      }
    }
    return true;
  }

  // ---- lower bound: simulated UP, disjoint inconsistent subsets ---------

  [[nodiscard]] bool clauseDisabled(int ci) const {
    return clauseDisabledStamp_[static_cast<std::size_t>(ci)] == roundStamp_;
  }

  [[nodiscard]] lbool effValue(Lit p) const {
    const lbool real = value(p);
    if (real != lbool::Undef) return real;
    const auto v = static_cast<std::size_t>(p.var());
    if (tmpStampArr_[v] != tmpStamp_) return lbool::Undef;
    const bool pos = tmpVal_[v];
    return toLbool(p.positive() ? pos : !pos);
  }

  void tmpAssign(Lit p, int reason) {
    const auto v = static_cast<std::size_t>(p.var());
    tmpStampArr_[v] = tmpStamp_;
    tmpVal_[v] = p.positive();
    tmpReason_[v] = reason;
    tmpTrail_.push_back(p);
  }

  /// Classifies clause `ci` under real+tmp assignment.
  struct EffState {
    bool satisfied = false;
    int freeCount = 0;
    Lit freeLit = kUndefLit;
  };
  [[nodiscard]] EffState effState(int ci) const {
    EffState st;
    for (Lit p : clauses_[static_cast<std::size_t>(ci)].lits) {
      const lbool v = effValue(p);
      if (v == lbool::True) {
        st.satisfied = true;
        return st;
      }
      if (v == lbool::Undef) {
        ++st.freeCount;
        st.freeLit = p;
      }
    }
    return st;
  }

  /// Collects the clauses involved in a simulated conflict and disables
  /// them for the remainder of this underestimate round set.
  void disableConflictSet(int conflictClause) {
    std::vector<int> stack{conflictClause};
    while (!stack.empty()) {
      const int ci = stack.back();
      stack.pop_back();
      if (clauseDisabled(ci)) continue;
      clauseDisabledStamp_[static_cast<std::size_t>(ci)] = roundStamp_;
      for (Lit p : clauses_[static_cast<std::size_t>(ci)].lits) {
        const auto v = static_cast<std::size_t>(p.var());
        if (value(p) != lbool::Undef) continue;  // real assignment
        if (tmpStampArr_[v] == tmpStamp_ && tmpReason_[v] >= 0) {
          stack.push_back(tmpReason_[v]);
        }
      }
    }
  }

  /// Number of disjoint inconsistent subsets found by simulated UP on the
  /// reduced formula (additional cost below this node).
  [[nodiscard]] int upUnderestimate() {
    ++roundStamp_;
    int conflicts = 0;
    while (true) {
      ++tmpStamp_;
      tmpTrail_.clear();
      std::vector<int> queue;
      for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
        if (clauseDisabled(static_cast<int>(ci))) continue;
        if (clauses_[ci].lits.empty()) continue;
        const EffState st = effState(static_cast<int>(ci));
        if (!st.satisfied && st.freeCount == 1) {
          queue.push_back(static_cast<int>(ci));
        }
      }
      bool conflictFound = false;
      std::size_t qhead = 0;
      while (qhead < queue.size() && !conflictFound) {
        const int ci = queue[qhead++];
        if (clauseDisabled(ci)) continue;
        const EffState st = effState(ci);
        if (st.satisfied) continue;
        if (st.freeCount == 0) {
          disableConflictSet(ci);
          ++conflicts;
          conflictFound = true;
          break;
        }
        if (st.freeCount != 1) continue;
        tmpAssign(st.freeLit, ci);
        for (int cj : occ_[static_cast<std::size_t>((~st.freeLit).index())]) {
          if (clauseDisabled(cj)) continue;
          const EffState sj = effState(cj);
          if (sj.satisfied) continue;
          if (sj.freeCount == 0) {
            // cj just became empty: conflict. Its falsity flows through
            // st.freeLit whose reason is ci.
            disableConflictSet(cj);
            ++conflicts;
            conflictFound = true;
            break;
          }
          if (sj.freeCount == 1) queue.push_back(cj);
        }
      }
      if (!conflictFound) break;
    }
    return conflicts;
  }

  // ---- branching ---------------------------------------------------------

  /// Jeroslow–Wang scores over the reduced formula; returns the literal to
  /// try first, or undef when all variables are assigned.
  [[nodiscard]] Lit pickBranchLit() const {
    std::vector<double> score(static_cast<std::size_t>(2 * n_), 0.0);
    bool any = false;
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      if (trueCnt_[ci] > 0) continue;
      const auto size = static_cast<int>(clauses_[ci].lits.size());
      const int freeLen = size - falseCnt_[ci];
      if (freeLen <= 0) continue;
      const double w = std::ldexp(1.0, -std::min(freeLen, 30));
      for (Lit p : clauses_[ci].lits) {
        if (value(p) == lbool::Undef) {
          score[static_cast<std::size_t>(p.index())] += w;
          any = true;
        }
      }
    }
    if (!any) {
      // No unsatisfied clause has a free literal left: the cost of this
      // branch is fully determined, so treat the assignment as complete
      // (unassigned variables are irrelevant).
      return kUndefLit;
    }
    Lit best = kUndefLit;
    double bestScore = -1.0;
    for (Var v = 0; v < n_; ++v) {
      if (val_[static_cast<std::size_t>(v)] != lbool::Undef) continue;
      const double sp = score[static_cast<std::size_t>(posLit(v).index())];
      const double sn = score[static_cast<std::size_t>(negLit(v).index())];
      const double total = sp + sn;
      if (total > bestScore) {
        bestScore = total;
        best = sp >= sn ? posLit(v) : negLit(v);
      }
    }
    return best;
  }

  // ---- search -------------------------------------------------------------

  [[nodiscard]] Assignment completedBestModel() const {
    Assignment out = bestModel_;
    out.resize(static_cast<std::size_t>(n_), lbool::False);
    for (lbool& v : out) {
      if (v == lbool::Undef) v = lbool::False;
    }
    return out;
  }

  void saveModel() {
    bestModel_.resize(static_cast<std::size_t>(n_));
    for (Var v = 0; v < n_; ++v) {
      bestModel_[static_cast<std::size_t>(v)] =
          val_[static_cast<std::size_t>(v)] == lbool::Undef
              ? lbool::False
              : val_[static_cast<std::size_t>(v)];
    }
  }

  /// Depth-first branch and bound; returns true iff aborted on budget.
  bool search() {
    ++nodes_;
    if ((nodes_ & 255) == 0 &&
        (opts_.budget.timeExpired() || opts_.budget.nodesExhausted(nodes_))) {
      return true;
    }
    const std::size_t mark = trail_.size();

    if (!propagateHard()) {
      undoTo(mark);
      return false;  // hard conflict: prune
    }
    if (static_cast<Weight>(falsifiedSoft_) >= ub_) {
      undoTo(mark);
      return false;
    }
    if (opts_.upLowerBound) {
      const int extra = upUnderestimate();
      if (static_cast<Weight>(falsifiedSoft_ + extra) >= ub_) {
        undoTo(mark);
        return false;
      }
    }

    const Lit branch = pickBranchLit();
    if (!branch.defined()) {
      // Complete assignment (over relevant variables): new best.
      ub_ = falsifiedSoft_;
      saveModel();
      undoTo(mark);
      return false;
    }

    for (const Lit p : {branch, ~branch}) {
      const std::size_t mark2 = trail_.size();
      assign(p);
      if (hardViol_ == 0) {
        if (search()) {
          undoTo(mark);
          return true;
        }
      }
      undoTo(mark2);
    }
    undoTo(mark);
    return false;
  }

  BnbOptions opts_;
  const WcnfFormula& formula_;
  int n_;
  std::vector<BClause> clauses_;
  std::vector<std::vector<int>> occ_;
  std::vector<int> trueCnt_;
  std::vector<int> falseCnt_;
  std::vector<lbool> val_;
  std::vector<Lit> trail_;
  std::vector<int> unitQueue_;
  int falsifiedSoft_ = 0;
  int hardViol_ = 0;

  // Simulated-UP scratch (stamp-versioned).
  std::vector<std::uint32_t> tmpStampArr_;
  std::vector<bool> tmpVal_;
  std::vector<int> tmpReason_;
  std::vector<Lit> tmpTrail_;
  std::vector<std::uint32_t> clauseDisabledStamp_;
  std::uint32_t tmpStamp_ = 0;
  std::uint32_t roundStamp_ = 0;

  Weight ub_ = 0;
  Weight rootLb_ = 0;
  Assignment bestModel_;
  std::int64_t nodes_ = 0;
};

}  // namespace

BnbSolver::BnbSolver(BnbOptions options) : opts_(options) {}

std::string BnbSolver::name() const { return "maxsatz-like"; }

MaxSatResult BnbSolver::solve(const WcnfFormula& input) {
  MaxSatResult result;
  std::optional<WcnfFormula> expanded;
  const WcnfFormula* unit = input.unitWeight(expanded);
  // A weighted input is searched on its unit-weight copy, held for the
  // whole run: it counts against the memory cap like the solvers'
  // clause storage.
  if (unit == nullptr ||
      (expanded &&
       opts_.budget.memoryExhausted(expanded->memBytesEstimate()))) {
    result.upperBound = input.totalSoftWeight();
    return result;
  }
  BnbEngine engine(*unit, opts_);
  result = engine.run();
  return result;
}

}  // namespace msu
