/// \file scc.cpp
/// \brief SCC-based equivalent-literal detection and substitution
///        (inprocessing round two).
///
/// The binary clauses form an implication graph over literals: a clause
/// (a ∨ b) contributes the edges ¬a → b and ¬b → a. Literals in one
/// strongly connected component are pairwise equivalent; a component
/// containing both x and ¬x makes the database unsatisfiable. One
/// iterative Tarjan sweep finds the components; every member of a
/// non-trivial component is then substituted by a chosen representative
/// — repr_[v] records the literal equivalent to v, and one database
/// sweep rewrites every clause through the map.
///
/// Components come in mirror pairs (the SCC of the negated literals);
/// exactly one of a pair has an even minimum literal index (the pair
/// shares its minimum *variable*, in opposite polarities, once the
/// x/¬x-in-one-component case is handled as unsatisfiable first), so
/// each equivalence class is processed exactly once.
///
/// ## Scope-/incremental-safety (the reconstruction contract, solver.h)
///
/// Activator and scope-owned variables are excluded from the graph —
/// provably a no-op for activators (no clause contains a positive
/// activator, so act is unreachable and ¬act has no out-edges) and a
/// defensive measure for scope variables (their binaries always carry
/// a guard literal, which blocks any cycle). Frozen and currently
/// assumed variables may participate but are never substituted: a
/// component containing such must-keep variables uses one of them as
/// the representative and substitutes only its plain members. Under
/// clause sharing the graph is restricted to the export prefix, whose
/// theory all workers share, so the substitution (and every rewritten
/// clause) means the same thing in every worker.
///
/// Substitution preserves arena scope tags: long clauses are rewritten
/// in place (ClauseRefView::shrink keeps the trailing tag word), and a
/// scope clause that degenerates to a binary keeps its guard literal
/// textually, which is what retirement's literal scan keys on. Each
/// substitution pushes its two witness halves (sat/reconstruct.h) so
/// models stay total over substituted variables; substituted variables
/// are never restored — future references are rewritten instead and
/// core() is mapped back. An attached ProofTracer disables the pass
/// (post-hoc clause rewriting is not expressible in the incremental
/// RUP trace).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sat/solver.h"

namespace msu {

bool Solver::inprocSubstitute() {
  if (!opts_.inprocess_scc) return ok_;  // stage disabled
  // Post-hoc rewriting is not expressible in the incremental RUP
  // trace; see the reconstruction contract in solver.h.
  if (opts_.tracer != nullptr) return ok_;
  if (!ok_) return false;
  assert(decisionLevel() == 0);

  const int nv = numVars();
  const std::size_t nLits = static_cast<std::size_t>(2 * nv);
  if (nLits == 0) return ok_;

  std::vector<char> assumed(static_cast<std::size_t>(nv), 0);
  for (const Lit p : assumptions_) assumed[p.var()] = 1;

  const bool prefixOnly = sharing();
  const auto excluded = [&](Var w) {
    return assigns_[w] != lbool::Undef || is_activator_[w] != 0 ||
           var_owner_[w] != kUndefVar || varRemoved(w) ||
           (prefixOnly && w >= opts_.share_num_vars);
  };

  // ---- Iterative Tarjan over the literal nodes -------------------------
  // Out-edges of literal l are binList(l): the watch list of l holds
  // BinWatch(q) for every binary (¬l ∨ q), i.e. the implications of l.
  struct Frame {
    std::int32_t lit = 0;
    std::uint32_t edge = 0;
  };
  std::vector<std::uint32_t> order(nLits, 0);  // 0 = unvisited
  std::vector<std::uint32_t> low(nLits, 0);
  std::vector<char> onStack(nLits, 0);
  std::vector<std::int32_t> sccStack;
  std::vector<Frame> dfs;
  std::vector<std::vector<std::int32_t>> sccs;
  std::uint32_t nextOrder = 1;

  for (std::size_t root = 0; root < nLits; ++root) {
    if (order[root] != 0) continue;
    const Lit rootLit = Lit::fromIndex(static_cast<std::int32_t>(root));
    if (excluded(rootLit.var())) continue;

    order[root] = low[root] = nextOrder++;
    sccStack.push_back(static_cast<std::int32_t>(root));
    onStack[root] = 1;
    dfs.push_back(Frame{static_cast<std::int32_t>(root), 0});
    while (!dfs.empty()) {
      // Value copy: the recursive push below may reallocate `dfs`.
      const Frame f = dfs.back();
      const Lit l = Lit::fromIndex(f.lit);
      const std::span<const BinWatch> outs = watches_.binList(l);
      if (f.edge < outs.size()) {
        ++dfs.back().edge;
        const Lit q = outs[f.edge].implied();
        if (excluded(q.var())) continue;
        const std::size_t qi = static_cast<std::size_t>(q.index());
        if (order[qi] == 0) {
          order[qi] = low[qi] = nextOrder++;
          sccStack.push_back(static_cast<std::int32_t>(qi));
          onStack[qi] = 1;
          dfs.push_back(Frame{static_cast<std::int32_t>(qi), 0});
        } else if (onStack[qi] != 0) {
          const std::size_t li = static_cast<std::size_t>(f.lit);
          low[li] = std::min(low[li], order[qi]);
        }
        continue;
      }
      dfs.pop_back();
      const std::size_t li = static_cast<std::size_t>(f.lit);
      if (!dfs.empty()) {
        const std::size_t pi = static_cast<std::size_t>(dfs.back().lit);
        low[pi] = std::min(low[pi], low[li]);
      }
      if (low[li] == order[li]) {
        std::vector<std::int32_t> scc;
        for (;;) {
          const std::int32_t m = sccStack.back();
          sccStack.pop_back();
          onStack[static_cast<std::size_t>(m)] = 0;
          scc.push_back(m);
          if (m == f.lit) break;
        }
        if (scc.size() >= 2) sccs.push_back(std::move(scc));
      }
    }
  }

  if (sccs.empty()) return ok_;

  // A component holding both polarities of a variable refutes the
  // database (x ≡ ¬x). Check every component before touching repr_.
  for (auto& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    for (std::size_t k = 0; k + 1 < scc.size(); ++k) {
      if ((scc[k] | 1) == scc[k + 1]) {  // indexes 2v and 2v+1
        ok_ = false;
        return false;
      }
    }
  }

  // ---- Substitution ----------------------------------------------------
  std::vector<Var> substituted;
  for (const auto& scc : sccs) {
    // Mirror dedup: the sorted component's minimum index determines the
    // minimum variable's polarity; process the even-parity twin only.
    if ((scc.front() & 1) != 0) continue;

    // Representative: a must-keep member (frozen or currently assumed —
    // never substitutable) when present, else the minimum-index member.
    Lit rep = kUndefLit;
    for (const std::int32_t m : scc) {
      const Lit l = Lit::fromIndex(m);
      if (frozen_[l.var()] != 0 || assumed[l.var()] != 0) {
        rep = l;
        break;
      }
    }
    if (rep == kUndefLit) rep = Lit::fromIndex(scc.front());

    for (const std::int32_t m : scc) {
      const Lit l = Lit::fromIndex(m);
      const Var v = l.var();
      if (l == rep || frozen_[v] != 0 || assumed[v] != 0) continue;
      assert(v != rep.var());
      // l ≡ rep, so posLit(v) ≡ (l positive ? rep : ¬rep).
      const Lit mapped = l.positive() ? rep : ~rep;
      repr_[v] = mapped;
      witness_.pushSubstitution(posLit(v), mapped);
      decision_[v] = 0;  // out of pickBranchLit permanently
      has_removed_vars_ = true;
      substituted.push_back(v);
      ++stats_.inproc_scc_vars;
    }
  }
  if (substituted.empty()) return ok_;

  // ---- Rewrite sweep: long clauses -------------------------------------
  // applyStrengthened cannot be reused here — it no-ops when the size
  // is unchanged, but substitution rewrites literals at equal length.
  std::vector<Lit> ps;
  const auto rewriteList = [&](std::vector<CRef>& refs) {
    for (const CRef ref : refs) {
      if (!ok_) return;
      ClauseRefView c = arena_[ref];
      if (c.deleted()) continue;
      bool touched = false;
      for (const Lit p : c.lits()) {
        if (repr_[p.var()] != posLit(p.var())) {
          touched = true;
          break;
        }
      }
      if (!touched) continue;

      // Map through the representatives and refilter against the root
      // assignment (earlier rewrites may have propagated units).
      ps.clear();
      bool sat = false;
      bool taut = false;
      for (const Lit raw : c.lits()) {
        const Lit p = reprLit(raw);
        const lbool val = value(p);
        if (val == lbool::True) {
          sat = true;
          break;
        }
        if (val == lbool::False) continue;
        bool dup = false;
        for (const Lit q : ps) {
          if (q == p) {
            dup = true;
            break;
          }
          if (q == ~p) {
            taut = true;
            break;
          }
        }
        if (taut) break;
        if (!dup) ps.push_back(p);
      }
      ++stats_.inproc_scc_rewritten;
      if (sat || taut) {
        removeClause(ref);
        continue;
      }
      if (ps.empty()) {
        removeClause(ref);
        ok_ = false;
        return;
      }
      if (ps.size() == 1) {
        removeClause(ref);
        uncheckedEnqueue(ps[0]);
        ok_ = propagate().isNone();
        continue;
      }
      if (ps.size() == 2) {
        const bool learnt = c.learnt();
        removeClause(ref);
        attachBinary(ps[0], ps[1], learnt);
        continue;
      }
      // In-place rewrite: the trailing tag word survives shrink, so a
      // scope clause keeps its activator tag.
      detachLong(ref);
      const int oldSize = c.size();
      for (std::size_t k = 0; k < ps.size(); ++k) {
        c[static_cast<int>(k)] = ps[k];
      }
      if (static_cast<int>(ps.size()) != oldSize) {
        c.shrink(static_cast<int>(ps.size()));
        arena_.markWastedWords(oldSize - static_cast<int>(ps.size()));
      }
      attachClause(ref);
    }
  };
  rewriteList(clauses_);
  if (!ok_) return false;
  rewriteList(learnts_);
  if (!ok_) return false;

  // ---- Rewrite sweep: binary clauses -----------------------------------
  // Drop every touched entry in place; re-attach the mapped clause (on
  // the canonical direction only) in an epilogue — pushBin can relocate
  // the very lists being swept.
  struct PendingBin {
    Lit a = kUndefLit;
    Lit b = kUndefLit;
    bool learnt = false;
  };
  std::vector<PendingBin> pending;
  for (int idx = 0; idx < watches_.numLits(); ++idx) {
    const Lit trigger = Lit::fromIndex(idx);
    const Lit self = ~trigger;  // the clause literal watched via `idx`
    const std::span<BinWatch> ws = watches_.binList(trigger);
    std::uint32_t j = 0;
    for (const BinWatch bw : ws) {
      const Lit other = bw.implied();
      const bool touched = repr_[self.var()] != posLit(self.var()) ||
                           repr_[other.var()] != posLit(other.var());
      if (!touched) {
        ws[j++] = bw;
        continue;
      }
      if (self.index() < other.index()) {  // canonical direction
        pending.push_back(PendingBin{reprLit(self), reprLit(other),
                                     bw.learnt()});
        if (bw.learnt()) {
          --num_bin_learnt_;
        } else {
          --num_bin_orig_;
        }
        ++stats_.inproc_scc_rewritten;
      }
    }
    watches_.shrinkBin(trigger, j);
  }
  const auto addUnit = [&](Lit u) {
    const lbool val = value(u);
    if (val == lbool::True) return;
    if (val == lbool::False) {
      ok_ = false;
      return;
    }
    uncheckedEnqueue(u);
    ok_ = propagate().isNone();
  };
  for (const PendingBin& pb : pending) {
    if (!ok_) return false;
    if (pb.a == ~pb.b) continue;  // mapped onto a tautology
    if (pb.a == pb.b) {
      addUnit(pb.a);
      continue;
    }
    const lbool va = value(pb.a);
    const lbool vb = value(pb.b);
    if (va == lbool::True || vb == lbool::True) continue;
    if (va == lbool::False && vb == lbool::False) {
      ok_ = false;
      return false;
    }
    if (va == lbool::False) {
      addUnit(pb.b);
      continue;
    }
    if (vb == lbool::False) {
      addUnit(pb.a);
      continue;
    }
    attachBinary(pb.a, pb.b, pb.learnt);
  }
  if (!ok_) return false;

  // Every clause over a substituted variable was rewritten or removed;
  // its long watch lists hold only lazily detached leftovers.
  for (const Var v : substituted) {
    watches_.shrinkLong(posLit(v), 0);
    watches_.shrinkLong(negLit(v), 0);
  }
  return ok_;
}

}  // namespace msu
