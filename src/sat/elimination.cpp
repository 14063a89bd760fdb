/// \file elimination.cpp
/// \brief Bounded variable elimination and the eliminated-variable
///        machinery around it: witness restoration and model
///        reconstruction.
///
/// Elimination is SatELite-style DP resolution: pick a variable v, form
/// every resolvent of a clause containing v with a clause containing
/// ¬v, and replace v's clauses by the non-tautological resolvents. The
/// result is equisatisfiable but not model-equivalent, so every
/// eliminated clause is pushed onto the solver's witness stack
/// (sat/reconstruct.h) and replayed over models before they are
/// published. The pass is *bounded*: a variable is eliminated only when
/// both occurrence lists are short (inprocess_bve_occ_limit), no
/// occurrence is longer than kBveClauseLimit, and the resolvent count
/// does not exceed the occurrence count by more than kBveGrowth. Pure
/// literals fall out as the empty-side case.
///
/// ## Scope-/incremental-safety (the reconstruction contract, solver.h)
///
/// A candidate variable must be a plain auxiliary: unassigned, not
/// frozen, not an activator, not scope-owned, not currently assumed,
/// not already eliminated, and not occurring in any tagged clause, any
/// clause touching a scope or activator variable, or any oversize
/// clause (those occurrences ban the variable). Binary clauses carry no
/// arena tag, so a binary partner in a scope identifies a scope binary
/// and disqualifies the candidate the same way. Consequently no witness
/// clause ever references a scope variable and retirement never
/// invalidates the stack.
///
/// Learnt clauses do not participate in resolution but every learnt
/// clause over v is deleted with it: the post-elimination database need
/// not imply them, and a stale learnt could force-assign the eliminated
/// variable. Deleting learnt clauses is always sound.
///
/// A variable is also kept when one of its resolvents would hold two
/// positive literals over non-decision variables: the sorter's clauses
/// each have one, and false completes the wires search leaves
/// unassigned only while no clause has two ("Non-decision variables"
/// in solver.h).
///
/// Resolvent variables are banned for the remainder of the pass — the
/// occurrence lists were built once and do not see the new clauses, and
/// resolving on a variable with an incomplete occurrence set would drop
/// constraints.
///
/// An attached ProofTracer disables the pass entirely: clause
/// restoration (an eliminated variable re-entering via addClause or an
/// assumption) re-adds clauses that are not RUP-derivable from the
/// current database, which the incremental trace cannot express.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sat/solver.h"

namespace msu {

namespace {

/// Resolvent-count slack of one elimination: a variable is eliminated
/// only when the number of non-tautological resolvents is at most
/// (occurrences removed) + this growth allowance.
constexpr int kBveGrowth = 0;

/// Skip elimination of a variable occurring in any clause longer than
/// this (resolvents of long clauses are long; keeps BVE to the cheap,
/// local eliminations).
constexpr int kBveClauseLimit = 24;

}  // namespace

bool Solver::restoreEliminated(std::span<const Lit> ps) {
  for (const Lit p : ps) {
    if (eliminated_[p.var()] != 0 && !restoreVar(p.var())) return false;
  }
  return ok_;
}

bool Solver::restoreVar(Var v) {
  assert(eliminated_[v] != 0);
  const bool wasDecision = eliminated_[v] == 1;
  // Clear the mark first: the witness clauses about to be re-added may
  // themselves name v, and the recursive restoreEliminated must see it
  // live.
  eliminated_[v] = 0;
  ++stats_.inproc_bve_restored;
  if (wasDecision && decision_[v] == 0) {
    decision_[v] = 1;
    if (assigns_[v] == lbool::Undef && !order_heap_.contains(v)) {
      order_heap_.insert(v);
    }
  }
  std::vector<std::vector<Lit>> clauses;
  witness_.extractRestorable(v, clauses);
  for (auto& cl : clauses) {
    if (!addClauseInternal(std::move(cl), kUndefVar)) return false;
  }
  return ok_;
}

bool Solver::addClauseInternal(std::vector<Lit> ps, Var tag) {
  // addClause's body without the cross-scope check and without axiom
  // tracing: restoration re-adds clauses the trace already holds, and
  // BVE resolvents only exist when no tracer is attached.
  assert(opts_.tracer == nullptr);
  if (!ok_) return false;
  if (has_removed_vars_ && !restoreEliminated(ps)) return false;

  std::sort(ps.begin(), ps.end());
  Lit prev = kUndefLit;
  std::size_t j = 0;
  for (Lit p : ps) {
    assert(p.var() < numVars());
    if (rootValue(p) == lbool::True ||
        (prev != kUndefLit && p == ~prev)) {  // satisfied / tautology
      return true;
    }
    if (rootValue(p) != lbool::False && p != prev) {
      ps[j++] = p;
      prev = p;
    }
  }
  ps.resize(j);
  assert(nonDecisionPositives(ps) <= 1);  // "Non-decision variables"

  if (ps.empty()) {
    if (decisionLevel() > 0) cancelUntil(0);
    ok_ = false;
    return false;
  }
  if (ps.size() == 1) {
    if (decisionLevel() > 0) cancelUntil(0);
    uncheckedEnqueue(ps[0]);
    ok_ = propagate().isNone();
    return ok_;
  }
  if (decisionLevel() > 0) prepareWarmAttach(ps);
  if (ps.size() == 2) {
    attachBinary(ps[0], ps[1], /*learnt=*/false);
    return true;
  }
  noteAllocFault();
  const CRef ref = arena_.alloc(ps, /*learnt=*/false, tag);
  clauses_.push_back(ref);
  attachClause(ref);
  return true;
}

bool Solver::inprocEliminate() {
  if (opts_.inprocess_bve_occ_limit <= 0) return ok_;  // stage disabled
  // Restoration is not expressible in the incremental RUP trace; see
  // the reconstruction contract in solver.h.
  if (opts_.tracer != nullptr) return ok_;
  if (!ok_) return false;
  assert(decisionLevel() == 0);

  const int nv = numVars();
  const std::size_t nLits = static_cast<std::size_t>(2 * nv);

  // Variables assumed by the current call keep their meaning: witness
  // replay may flip a removed variable, which would silently violate
  // the assumption.
  std::vector<char> assumed(static_cast<std::size_t>(nv), 0);
  for (const Lit p : assumptions_) assumed[p.var()] = 1;

  // banned[v]: v occurs somewhere elimination must not touch — a
  // tagged clause, a clause over scope/activator variables, an
  // oversize clause, or (later) a resolvent the occurrence lists below
  // do not see.
  std::vector<char> banned(static_cast<std::size_t>(nv), 0);

  // Literal-indexed occurrence lists over the long clauses: originals
  // (resolution inputs) and learnts (deleted with the variable).
  std::vector<std::vector<CRef>> occ(nLits);
  std::vector<std::vector<CRef>> occLearnt(nLits);

  for (const CRef ref : clauses_) {
    const ClauseRefView c = arena_[ref];
    if (c.deleted()) continue;
    bool eligible = !c.tagged() && c.size() <= kBveClauseLimit;
    if (eligible) {
      for (const Lit p : c.lits()) {
        if (is_activator_[p.var()] != 0 || var_owner_[p.var()] != kUndefVar) {
          eligible = false;
          break;
        }
      }
    }
    if (!eligible) {
      for (const Lit p : c.lits()) banned[p.var()] = 1;
      continue;
    }
    for (const Lit p : c.lits()) {
      occ[static_cast<std::size_t>(p.index())].push_back(ref);
    }
  }
  for (const CRef ref : learnts_) {
    const ClauseRefView c = arena_[ref];
    if (c.deleted()) continue;
    for (const Lit p : c.lits()) {
      occLearnt[static_cast<std::size_t>(p.index())].push_back(ref);
    }
  }

  std::vector<char> inResolvent(nLits, 0);  // tautology-check marker
  std::vector<std::vector<Lit>> posCls;
  std::vector<std::vector<Lit>> negCls;
  std::vector<std::vector<Lit>> resolvents;
  std::vector<Lit> scratch;

  for (Var v = 0; v < nv && ok_; ++v) {
    if (assigns_[v] != lbool::Undef) continue;
    if (banned[v] != 0 || frozen_[v] != 0 || is_activator_[v] != 0) continue;
    if (assumed[v] != 0 || var_owner_[v] != kUndefVar) continue;
    if (eliminated_[v] != 0) continue;

    const Lit pv = posLit(v);
    const Lit nvl = negLit(v);

    // Materialize both occurrence sets: long originals from occ,
    // original binaries from the watch lists (a binary containing l
    // lives in binList(~l)). Binaries carry no arena tag, so a partner
    // in a scope marks a scope binary and disqualifies the candidate.
    posCls.clear();
    negCls.clear();
    bool skip = false;
    const auto gather = [&](Lit l, std::vector<std::vector<Lit>>& out) {
      for (const CRef ref : occ[static_cast<std::size_t>(l.index())]) {
        const ClauseRefView c = arena_[ref];
        if (c.deleted()) continue;
        out.emplace_back(c.lits().begin(), c.lits().end());
      }
      for (const BinWatch bw : watches_.binList(~l)) {
        if (bw.learnt()) continue;  // learnts are deleted, not resolved
        const Lit q = bw.implied();
        if (is_activator_[q.var()] != 0 || var_owner_[q.var()] != kUndefVar) {
          skip = true;
          return;
        }
        out.push_back({l, q});
      }
    };
    gather(pv, posCls);
    if (!skip) gather(nvl, negCls);
    if (skip) continue;

    const int posCount = static_cast<int>(posCls.size());
    const int negCount = static_cast<int>(negCls.size());
    if (posCount > opts_.inprocess_bve_occ_limit ||
        negCount > opts_.inprocess_bve_occ_limit) {
      continue;
    }
    if (posCount + negCount == 0) continue;  // unused variable

    // Build the non-tautological resolvents; bail out as soon as the
    // growth allowance is exceeded, or a resolvent would hold two
    // positive literals over non-decision variables, which model
    // completion needs absent (solver.h).
    resolvents.clear();
    bool reject = false;
    const int allow = posCount + negCount + kBveGrowth;
    for (const auto& cp : posCls) {
      for (const auto& cn : negCls) {
        scratch.clear();
        bool taut = false;
        for (const Lit p : cp) {
          if (p == pv) continue;
          if (inResolvent[static_cast<std::size_t>(p.index())] == 0) {
            inResolvent[static_cast<std::size_t>(p.index())] = 1;
            scratch.push_back(p);
          }
        }
        for (const Lit p : cn) {
          if (p == nvl) continue;
          if (inResolvent[static_cast<std::size_t>((~p).index())] != 0) {
            taut = true;
            break;
          }
          if (inResolvent[static_cast<std::size_t>(p.index())] == 0) {
            inResolvent[static_cast<std::size_t>(p.index())] = 1;
            scratch.push_back(p);
          }
        }
        for (const Lit p : scratch) {
          inResolvent[static_cast<std::size_t>(p.index())] = 0;
        }
        if (taut) continue;
        if (nonDecisionPositives(scratch) > 1) {
          reject = true;
          break;
        }
        resolvents.push_back(scratch);
        if (static_cast<int>(resolvents.size()) > allow) {
          reject = true;
          break;
        }
      }
      if (reject) break;
    }
    if (reject) continue;

    // Commit. Witness entries first (the clauses are about to go):
    // positive occurrences with witness v, then negative with ¬v. At
    // most one polarity's clauses can be unsatisfied by a model of the
    // resolvents, so the replay flips never conflict.
    for (const auto& cl : posCls) {
      witness_.pushClause(pv, cl);
    }
    for (const auto& cl : negCls) {
      witness_.pushClause(nvl, cl);
    }

    // Delete every long clause over v: originals (now witnessed) and
    // learnts (the reduced database need not imply them, and a stale
    // learnt could force-assign the eliminated variable).
    const auto dropLongs = [&](const std::vector<CRef>& refs) {
      for (const CRef ref : refs) {
        ClauseRefView c = arena_[ref];
        if (!c.deleted()) removeClause(ref);
      }
    };
    dropLongs(occ[static_cast<std::size_t>(pv.index())]);
    dropLongs(occ[static_cast<std::size_t>(nvl.index())]);
    dropLongs(occLearnt[static_cast<std::size_t>(pv.index())]);
    dropLongs(occLearnt[static_cast<std::size_t>(nvl.index())]);

    // Binaries (original and learnt): drop the mirror entry from the
    // partner's list, then clear v's own lists wholesale.
    const auto dropBinaries = [&](Lit l) {
      for (const BinWatch bw : watches_.binList(~l)) {
        const Lit q = bw.implied();
        const BinWatch mirror(l, bw.learnt());
        const std::span<BinWatch> ws = watches_.binList(~q);
        for (std::size_t i = 0; i < ws.size(); ++i) {
          if (ws[i] == mirror) {
            ws[i] = ws[ws.size() - 1];
            watches_.shrinkBin(~q, static_cast<std::uint32_t>(ws.size() - 1));
            break;
          }
        }
        if (bw.learnt()) {
          --num_bin_learnt_;
        } else {
          --num_bin_orig_;
        }
      }
      watches_.shrinkBin(~l, 0);
    };
    dropBinaries(pv);
    dropBinaries(nvl);
    // All clauses over v are gone: the long watch lists hold only
    // lazily detached watchers of deleted clauses.
    watches_.shrinkLong(pv, 0);
    watches_.shrinkLong(nvl, 0);

    eliminated_[v] = decision_[v] != 0 ? 1 : 2;
    decision_[v] = 0;  // out of pickBranchLit until restored
    has_removed_vars_ = true;
    banned[v] = 1;
    ++stats_.inproc_bve_eliminated;

    // Add the resolvents. Their variables are banned for the rest of
    // the pass: the occurrence lists were built before these clauses
    // existed, and resolving on an incomplete occurrence set would
    // drop constraints.
    for (auto& r : resolvents) {
      for (const Lit p : r) banned[p.var()] = 1;
      ++stats_.inproc_bve_resolvents;
      if (!addClauseInternal(std::move(r), kUndefVar)) return false;
    }
  }
  return ok_;
}

}  // namespace msu
