/// \file inprocess.cpp
/// \brief Scope-aware inprocessing over the solver's live clause
///        database (Options::inprocess): SatELite-style simplification
///        between oracle calls, with model reconstruction through
///        sat/reconstruct.h.
///
/// The MaxSAT engines drive one incremental oracle through thousands of
/// solve calls, so the arena accumulates clauses that are satisfied at
/// the top level, subsumed by later (often learnt) clauses, or longer
/// than they need to be — and every later propagation pays for them.
/// A pass runs at solve/restart boundaries, budgeted by propagations
/// since the last pass (a retirement notification forces one), and has
/// three stages, each at decision level 0 — the SatELite pair (Eén &
/// Biere, SAT 2005) behind a root-level cleanup:
///
///  1. *Propagate + strip.* Remove top-level-satisfied clauses and
///     strip level-0-false literals from the survivors.
///  2. *Backward subsumption + self-subsuming strengthening.* One
///     occurrence-list sweep in SatELite/MiniSat style: a clause C
///     deletes every clause it subsumes and removes `~l` from every
///     clause D with C \ {l} ⊆ D (one flipped literal allowed in the
///     subset check). Binary clauses participate as subsumers; a learnt
///     subsumer of an original clause is first promoted to original so
///     reduceDB cannot delete the only witness of the constraint.
///  3. *Bounded variable elimination* (elimination.cpp). SatELite-
///     style DP resolution of cheap variables, after subsumption so
///     the occurrence/resolvent bounds see a deduplicated database.
///
/// Stage 3 removes variables from the search; the witness stack it
/// pushes (sat/reconstruct.h) and the rules that keep removal sound
/// across the incremental API are the "reconstruction contract" in
/// solver.h. It is disabled while a ProofTracer is attached; stages 1
/// and 2 derive ordinary RUP lemmas and stay on.
///
/// ## Scope-awareness (why this is sound under retirement)
///
/// Every clause of an encoding scope carries the scope's guard literal
/// `~act`, and guards occur in that one polarity only, so any resolvent
/// or subset derived from scope clauses textually contains the guard —
/// retirement's literal scan deletes it with the scope. The pass
/// preserves that invariant explicitly:
///
///  * Activator literals are never strengthening pivots and never
///    removed from a clause.
///  * A subsumption subset check means the subsumee contains every
///    guard the subsumer carries, so deleting the subsumee never
///    outlives its witness across any retirement order.
///  * Strengthened clauses are rewritten in place and keep their
///    activator tag (ClauseRefView::shrink moves the trailing tag
///    word), so retire()'s fast path and the portfolio's "no tagged
///    clause is ever exported" filter keep working.
///  * A tagged clause is never strengthened against a strictly younger
///    scope's clauses (Options are compared by scope birth), matching
///    the cross-scope layering contract in Solver::addClause.
///  * Frozen variables (soft-clause selectors, assumption handles; see
///    Solver::setFrozen) keep their literals: engine protocols depend
///    on their textual presence, not just on logical equivalence.
///
/// Everything else is equivalence-preserving: subsumption removes
/// implied clauses, and strengthening replaces a clause by an implied
/// subset of itself, so solve results under any assumption set are
/// unchanged — only cheaper to compute.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sat/solver.h"

namespace msu {

namespace {

/// Variable-based Bloom signature: one bit per variable hash, so a
/// flipped literal (self-subsumption pivot) still matches.
std::uint64_t varSignature(std::span<const Lit> lits) {
  std::uint64_t sig = 0;
  for (const Lit p : lits) {
    sig |= std::uint64_t{1} << (static_cast<std::uint32_t>(p.var()) & 63u);
  }
  return sig;
}

/// Subset check with at most one flipped literal, SatELite-style.
/// Returns 0 (no relation), 1 (`c` subsumes `d`) or 2 (`c` self-subsumes
/// `d`: removing `~*flip` strengthens `d`).
int subsumeCheck(std::span<const Lit> c, std::uint64_t sigC,
                 const ClauseRefView d, std::uint64_t sigD, Lit* flip) {
  if (static_cast<int>(c.size()) > d.size() || (sigC & ~sigD) != 0) return 0;
  Lit fl = kUndefLit;
  for (const Lit p : c) {
    bool found = false;
    for (int k = 0; k < d.size(); ++k) {
      if (d[k] == p) {
        found = true;
        break;
      }
      if (d[k] == ~p) {
        if (fl != kUndefLit) return 0;  // two flips: plain resolution
        fl = p;
        found = true;
        break;
      }
    }
    if (!found) return 0;
  }
  if (fl == kUndefLit) return 1;
  *flip = fl;
  return 2;
}

}  // namespace

std::uint64_t Solver::scopeBirthOf(Var tag) const {
  if (tag == kUndefVar) return 0;
  const int slot = scope_index_[tag];
  if (slot < 0) return 0;  // tag no longer names a live scope
  return scopes_[static_cast<std::size_t>(slot)].second.birth;
}

bool Solver::maybeInprocess() {
  if (!opts_.inprocess || !ok_) return ok_;
  if (!inprocessDue()) return true;
  if (budget_.timeExpired()) return true;
  return inprocessPass();
}

bool Solver::inprocessNow() {
  if (!opts_.inprocess || !ok_) return ok_;
  // A pass rewrites the clause database: a warm reused trail
  // (Options::reuse_trail) is explicitly invalidated first, mirroring
  // retirement. solve() itself cancels before its boundary passes.
  if (decisionLevel() > 0) {
    assert(opts_.reuse_trail);
    cancelUntil(0);
  }
  return inprocessPass();
}

bool Solver::inprocessPass() {
  assert(decisionLevel() == 0);
  obs::TraceSpan passSpan(opts_.trace, obs::TraceCat::kInproc, "inprocess");
  inproc_pending_ = false;
  ++stats_.inproc_passes;

  // Stage order: elimination comes last because it wants the database
  // already deduplicated, so that the resolvent bound is meaningful.
  const bool passOk =
      inprocPropagateAndStrip() && inprocSubsume() && inprocEliminate();

  // Drop refs of clauses the pass deleted; the stages only mark them.
  const auto dropDeleted = [&](std::vector<CRef>& refs) {
    std::size_t j = 0;
    for (const CRef ref : refs) {
      if (!arena_[ref].deleted()) refs[j++] = ref;
    }
    refs.resize(j);
  };
  dropDeleted(clauses_);
  dropDeleted(learnts_);

  if (!passOk) return false;

  // Units derived mid-pass may have satisfied further clauses; leave
  // those to the regular simplify() sweep by invalidating its marker.
  if (trailSize() != simp_db_assigns_) {
    rebuildOrderHeap();
    simp_db_assigns_ = -1;
  }
  inproc_last_props_ = stats_.propagations;
  garbageCollectIfNeeded();
  return true;
}

bool Solver::inprocPropagateAndStrip() {
  if (!propagate().isNone()) {
    if (ok_) traceLemma({});
    ok_ = false;
    return false;
  }
  // Satisfied clauses and false literals only appear when the root
  // trail grows; skip the database sweeps (notably the full binary-list
  // walk) when nothing was assigned since the last strip.
  if (trailSize() == inproc_db_assigns_) return true;
  inprocStripList(learnts_);
  if (!ok_) return false;
  inprocStripList(clauses_);
  if (!ok_) return false;
  removeSatisfiedBinaries();
  inproc_db_assigns_ = trailSize();
  return true;
}

void Solver::inprocStripList(std::vector<CRef>& refs) {
  std::size_t j = 0;
  std::vector<Lit> keep;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const CRef ref = refs[i];
    ClauseRefView c = arena_[ref];
    if (c.deleted()) continue;
    if (!ok_) {
      refs[j++] = ref;
      continue;
    }
    bool sat = false;
    int numFalse = 0;
    for (const Lit p : c.lits()) {
      const lbool v = value(p);
      if (v == lbool::True) {
        sat = true;
        break;
      }
      if (v == lbool::False) ++numFalse;
    }
    if (sat) {
      removeClause(ref);
      ++stats_.inproc_removed_sat;
      continue;
    }
    if (numFalse == 0) {
      refs[j++] = ref;
      continue;
    }
    keep.clear();
    for (const Lit p : c.lits()) {
      if (value(p) != lbool::False) keep.push_back(p);
    }
    if (applyStrengthened(ref, keep)) {
      refs[j++] = ref;
    }
  }
  refs.resize(j);
}

bool Solver::applyStrengthened(CRef ref, std::span<const Lit> newLits) {
  ClauseRefView c = arena_[ref];
  assert(!c.deleted());

  // Re-filter against the level-0 assignment: units derived earlier in
  // the same pass may have satisfied or falsified literals since the
  // caller computed `newLits`.
  std::vector<Lit> ps;
  ps.reserve(newLits.size());
  bool sat = false;
  for (const Lit p : newLits) {
    const lbool v = value(p);
    if (v == lbool::True) {
      sat = true;
      break;
    }
    if (v != lbool::False) ps.push_back(p);
  }
  if (sat) {
    removeClause(ref);
    ++stats_.inproc_removed_sat;
    return false;
  }
  if (static_cast<int>(ps.size()) == c.size()) return true;  // no-op

  // The clause genuinely shrinks past this point: count it here so the
  // stats reflect outcomes, not attempts.
  ++stats_.inproc_strengthened;
  stats_.inproc_lits_removed +=
      static_cast<std::int64_t>(c.size()) -
      static_cast<std::int64_t>(ps.size());

  traceLemma(ps);
  if (ps.empty()) {
    removeClause(ref);
    ok_ = false;
    return false;
  }
  if (ps.size() == 1) {
    removeClause(ref);
    assert(value(ps[0]) == lbool::Undef);
    uncheckedEnqueue(ps[0]);
    ok_ = propagate().isNone();
    if (!ok_) traceLemma({});
    return false;
  }
  if (ps.size() == 2) {
    const bool learnt = c.learnt();
    removeClause(ref);
    attachBinary(ps[0], ps[1], learnt);
    return false;
  }

  // Rewrite in place: detach, shrink (the activator tag word trails the
  // literals and is preserved), reattach on the first two literals —
  // all of which are unassigned at level 0 after the filter above.
  if (opts_.tracer != nullptr) {
    std::vector<Lit> old(c.lits().begin(), c.lits().end());
    traceDeleted(old);
  }
  detachLong(ref);
  const int oldSize = c.size();
  for (std::size_t k = 0; k < ps.size(); ++k) c[static_cast<int>(k)] = ps[k];
  c.shrink(static_cast<int>(ps.size()));
  arena_.markWastedWords(oldSize - static_cast<int>(ps.size()));
  attachClause(ref);
  return true;
}

void Solver::detachLong(CRef ref) {
  ClauseRefView c = arena_[ref];
  const bool w0 = watches_.removeLong(~c[0], ref);
  const bool w1 = watches_.removeLong(~c[1], ref);
  assert(w0 && w1);
  static_cast<void>(w0);
  static_cast<void>(w1);
}

bool Solver::inprocSubsume() {
  /// One backward-subsumption sweep. Occurrence lists, signatures and
  /// candidate order are rebuilt per pass — passes are rare and the
  /// structure must reflect the post-strip database anyway.
  struct Rec {
    CRef ref = kCRefUndef;
    std::uint64_t sig = 0;
    std::uint64_t tagBirth = 0;  ///< 0 = untagged
    std::uint32_t size = 0;
    bool learnt = false;
    bool dead = false;
  };
  if (opts_.inprocess_occ_limit <= 0) return true;  // stage disabled
  // Binary-only databases (common in pure-UP workloads) have nothing to
  // subsume into: binary-vs-binary dedup is not worth the sweep, and
  // building the occurrence structure would be the whole cost.
  if (clauses_.empty() && learnts_.empty()) return true;

  std::vector<Rec> recs;
  recs.reserve(clauses_.size() + learnts_.size());
  // Variable-indexed occurrence lists (MiniSat's `occurs`): a scan of
  // one variable's list sees both polarities, so self-subsumption whose
  // flipped literal is the scan key is still found.
  std::vector<std::vector<int>> occ(static_cast<std::size_t>(numVars()));

  const auto addRecs = [&](const std::vector<CRef>& refs, bool learnt) {
    for (const CRef ref : refs) {
      const ClauseRefView c = arena_[ref];
      if (c.deleted()) continue;
      Rec r;
      r.ref = ref;
      r.sig = varSignature(c.lits());
      r.tagBirth = c.tagged() ? scopeBirthOf(c.tag()) : 0;
      r.size = static_cast<std::uint32_t>(c.size());
      r.learnt = learnt;
      const int id = static_cast<int>(recs.size());
      for (const Lit p : c.lits()) {
        occ[static_cast<std::size_t>(p.var())].push_back(id);
      }
      recs.push_back(r);
    }
  };
  addRecs(clauses_, /*learnt=*/false);
  addRecs(learnts_, /*learnt=*/true);

  std::vector<Lit> scratch;

  // Deletes `rd` as subsumed by the clause `cLits` (a live binary or the
  // clause of `rc`). If the witness is a deletable learnt and the victim
  // is original, the witness is promoted to an original clause first, so
  // reduceDB cannot later remove the constraint's only representative.
  const auto subsume = [&](Rec* rc, Rec& rd) {
    if (rc != nullptr && rc->learnt && !rd.learnt) {
      const ClauseRefView c = arena_[rc->ref];
      // Promote a root-filtered copy: mid-pass units may have falsified
      // interior literals, and a root-satisfied witness needs no
      // promotion at all (both clauses are then permanently satisfied).
      scratch.clear();
      bool satAtRoot = false;
      for (const Lit p : c.lits()) {
        const lbool v = value(p);
        if (v == lbool::True) {
          satAtRoot = true;
          break;
        }
        if (v != lbool::False) scratch.push_back(p);
      }
      // Propagation fixpoints mean an unsatisfied clause keeps >= 2
      // unassigned literals; a root-satisfied witness can stay learnt
      // (both clauses are then permanently satisfied). Anything else
      // would leave the victim without a durable witness: keep it.
      if (!satAtRoot && scratch.size() < 2) return;
      if (!satAtRoot) {
        const Var tag = c.tagged() ? c.tag() : kUndefVar;
        if (scratch.size() == 2) {
          attachBinary(scratch[0], scratch[1], /*learnt=*/false);
          removeClause(rc->ref);
          rc->dead = true;     // lives on outside the arena
          rc->learnt = false;  // later victims must not re-promote it
        } else {
          const CRef fresh = arena_.alloc(scratch, /*learnt=*/false, tag);
          attachClause(fresh);
          clauses_.push_back(fresh);
          removeClause(rc->ref);
          rc->ref = fresh;
          rc->learnt = false;
          rc->size = static_cast<std::uint32_t>(scratch.size());
          rc->sig = varSignature(scratch);
        }
      }
    }
    removeClause(rd.ref);
    rd.dead = true;
    ++stats_.inproc_subsumed;
  };

  // Strengthens `rd` by removing `~flip` (self-subsuming resolution with
  // the subsumer providing `flip`). Scope rules: activator and frozen
  // variables are never pivots, and a tagged victim is never resolved
  // against a strictly younger scope's clause.
  const auto strengthen = [&](std::uint64_t subsumerBirth, Rec& rd, Lit flip) {
    if (is_activator_[flip.var()] != 0 || frozen_[flip.var()] != 0) return;
    if (subsumerBirth > rd.tagBirth) return;
    const ClauseRefView d = arena_[rd.ref];
    scratch.clear();
    for (int k = 0; k < d.size(); ++k) {
      if (d[k] != ~flip) scratch.push_back(d[k]);
    }
    if (applyStrengthened(rd.ref, scratch)) {
      const ClauseRefView nd = arena_[rd.ref];
      rd.size = static_cast<std::uint32_t>(nd.size());
      rd.sig = varSignature(nd.lits());
    } else {
      rd.dead = true;  // deleted, converted to binary/unit, or satisfied
    }
  };

  // Makes the learnt binary {self, other} original, flipping the flag
  // in both of its watch entries. Original binaries leave the database
  // only through retirement or with a BVE witness, but BVE drops learnt
  // ones outright: a learnt binary that subsumes an original clause
  // must be promoted, like a long learnt subsumer.
  const auto promoteBinary = [&](Lit self, Lit other) {
    for (const auto& [list, implied] :
         {std::pair{~self, other}, std::pair{~other, self}}) {
      for (BinWatch& w : watches_.binList(list)) {
        if (w == BinWatch(implied, /*learnt=*/true)) {
          w = BinWatch(implied, /*learnt=*/false);
          break;
        }
      }
    }
    --num_bin_learnt_;
    ++num_bin_orig_;
  };

  // ---- Binary subsumers --------------------------------------------------
  // Each binary clause {a, b} scans occ[a] and occ[~a]: any almost-
  // subsumed clause contains a or ~a, so the two lists cover all cases.
  for (int idx = 0; idx < watches_.numLits() && ok_; ++idx) {
    const Lit trigger = Lit::fromIndex(idx);
    const Lit self = ~trigger;
    // Index-based: strengthening a candidate to binary length appends to
    // the binary pool and may relocate this very list.
    for (std::uint32_t b = 0; b < watches_.binList(trigger).size(); ++b) {
      const Lit other = watches_.binList(trigger)[b].implied();
      if (self.index() >= other.index()) continue;  // canonical direction
      const std::array<Lit, 2> bin{self, other};
      const std::uint64_t sigC = varSignature(bin);
      const auto& cands = occ[static_cast<std::size_t>(self.var())];
      if (static_cast<int>(cands.size()) > opts_.inprocess_occ_limit) {
        continue;
      }
      // A scope binary is guard + one literal: its birth is the guard
      // scope's, so the younger-scope rule covers binaries too.
      std::uint64_t binBirth = 0;
      for (const Lit p : bin) {
        if (is_activator_[p.var()] != 0) {
          binBirth = std::max(binBirth, scopeBirthOf(p.var()));
        }
      }
      for (const int di : cands) {
        Rec& rd = recs[static_cast<std::size_t>(di)];
        if (rd.dead || !ok_) continue;
        Lit flip = kUndefLit;
        const int rel = subsumeCheck(bin, sigC, arena_[rd.ref], rd.sig, &flip);
        if (rel == 1) {
          if (!rd.learnt && watches_.binList(trigger)[b].learnt()) {
            promoteBinary(self, other);
          }
          subsume(nullptr, rd);
        } else if (rel == 2) {
          strengthen(binBirth, rd, flip);
        }
      }
    }
  }
  if (!ok_) return false;

  // ---- Long subsumers, smallest first ------------------------------------
  std::vector<int> order(recs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Rec& ra = recs[static_cast<std::size_t>(a)];
    const Rec& rb = recs[static_cast<std::size_t>(b)];
    if (ra.size != rb.size) return ra.size < rb.size;
    return ra.learnt < rb.learnt;  // prefer original witnesses
  });

  std::vector<Lit> cLits;
  for (const int ci : order) {
    if (!ok_) break;
    Rec& rc = recs[static_cast<std::size_t>(ci)];
    if (rc.dead) continue;
    {
      const ClauseRefView c = arena_[rc.ref];
      if (c.deleted()) {
        rc.dead = true;
        continue;
      }
      cLits.assign(c.lits().begin(), c.lits().end());
      rc.size = static_cast<std::uint32_t>(c.size());  // may have shrunk
    }
    // Scan the occurrence list of the least-occurring variable; every
    // clause `rc` subsumes or self-subsumes contains it (possibly with
    // its literal flipped — the list is variable-indexed).
    Var best = cLits[0].var();
    for (const Lit p : cLits) {
      if (occ[static_cast<std::size_t>(p.var())].size() <
          occ[static_cast<std::size_t>(best)].size()) {
        best = p.var();
      }
    }
    const auto& cands = occ[static_cast<std::size_t>(best)];
    if (static_cast<int>(cands.size()) > opts_.inprocess_occ_limit) continue;
    const std::uint64_t sigC = varSignature(cLits);
    for (const int di : cands) {
      if (di == ci || !ok_) continue;
      Rec& rd = recs[static_cast<std::size_t>(di)];
      if (rd.dead || rd.size < rc.size) continue;
      Lit flip = kUndefLit;
      const int rel =
          subsumeCheck(cLits, sigC, arena_[rd.ref], rd.sig, &flip);
      if (rel == 1) {
        subsume(&rc, rd);
      } else if (rel == 2) {
        strengthen(rc.tagBirth, rd, flip);
        // The victim may have shrunk below the subsumer's size; later
        // subsumers re-check sizes, and stale occ entries are filtered
        // by the full subset check.
      }
    }
  }
  return ok_;
}

}  // namespace msu
