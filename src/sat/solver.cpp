#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace msu {

namespace {
/// Activity ceiling before rescaling.
constexpr double kVarRescaleLimit = 1e100;
constexpr float kClaRescaleLimit = 1e20f;

/// Geometric restart factor (Options::luby_restarts off).
constexpr double kRestartInc = 2.0;

// Adaptive restarts (Options::ema_restarts; see RestartEma): a restart
// fires when the fast LBD average exceeds kEmaMargin times the slow
// one, once the segment has kEmaMinConflicts conflicts, and is blocked
// while the trail is deeper than kEmaBlockMargin times its average
// (smoothed by kEmaTrailAlpha).
constexpr double kEmaMargin = 1.25;
constexpr int kEmaMinConflicts = 50;
constexpr double kEmaBlockMargin = 1.4;
constexpr double kEmaTrailAlpha = 1.0 / 4096.0;
/// Luby scale of stable-mode restarts, in multiples of restart_base
/// (stable phases restart rarely by design).
constexpr int kStableRestartMult = 8;
}  // namespace

double lubySequence(double y, int i) {
  // Find the finite subsequence containing index i, and its size.
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

Solver::Solver(const Options& opts) : opts_(opts), order_heap_(activity_) {}

Var Solver::newVar(bool decisionVar, bool scoped) {
  Var v;
  if (!free_vars_.empty()) {
    // Recycle a variable freed by a retired scope. Its watch lists are
    // empty (retire purges them) and it is unassigned; reset the
    // heuristic state to that of a fresh variable.
    v = free_vars_.back();
    free_vars_.pop_back();
    assert(assigns_[v] == lbool::Undef);
    vardata_[v] = VarData{};
    polarity_[v] = 1;
    best_phase_[v] = 1;
    activity_[v] = 0.0;
    seen_[v] = 0;
    var_owner_[v] = kUndefVar;
    decision_[v] = decisionVar ? 1 : 0;
    if (order_heap_.contains(v)) {
      order_heap_.update(v);  // activity changed: restore heap order
    } else if (decisionVar) {
      order_heap_.insert(v);
    }
  } else {
    v = numVars();
    watches_.addLiteral();
    watches_.addLiteral();
    assigns_.push_back(lbool::Undef);
    vardata_.push_back(VarData{});
    polarity_.push_back(1);  // default phase: assign false first
    best_phase_.push_back(1);
    decision_.push_back(decisionVar ? 1 : 0);
    activity_.push_back(0.0);
    seen_.push_back(0);
    is_activator_.push_back(0);
    scope_index_.push_back(-1);
    var_owner_.push_back(kUndefVar);
    assump_stamp_.push_back(0);
    if (decisionVar) order_heap_.insert(v);
  }
  if (scoped && !scope_stack_.empty()) {
    const Var owner = scope_stack_.back();
    assert(scope_index_[owner] >= 0);
    scopes_[static_cast<std::size_t>(scope_index_[owner])]
        .second.vars.push_back(v);
    var_owner_[v] = owner;
  }
  return v;
}

Lit Solver::newActivator() {
  const Var v = newVar(/*decisionVar=*/false, /*scoped=*/false);
  is_activator_[v] = 1;
  scope_index_[v] = static_cast<int>(scopes_.size());
  ScopeRec rec;
  rec.birth = ++scope_births_;
  scopes_.emplace_back(v, std::move(rec));
  return posLit(v);
}

void Solver::openScope(Lit activator) {
  assert(isLiveScope(activator));
  scope_stack_.push_back(activator.var());
}

void Solver::closeScope(Lit activator) {
  assert(!scope_stack_.empty() && scope_stack_.back() == activator.var());
  static_cast<void>(activator);
  scope_stack_.pop_back();
}

void Solver::setScopeEnforced(Lit activator, bool enforced) {
  const int slot = scope_index_[activator.var()];
  assert(slot >= 0 && "setScopeEnforced on a retired scope");
  scopes_[static_cast<std::size_t>(slot)].second.enforced = enforced;
}

bool Solver::isLiveScope(Lit activator) const {
  const Var v = activator.var();
  return v >= 0 && v < numVars() && scope_index_[v] >= 0;
}

void Solver::retireAll(std::span<const Lit> activators) {
  // Retirement rewrites the clause database wholesale: any warm reused
  // trail (Options::reuse_trail) is invalidated here, explicitly, so
  // the sweep below runs at level 0 as it always has.
  if (decisionLevel() > 0) {
    assert(opts_.reuse_trail);
    cancelUntil(0);
  }
  // Mark the activators and every scope-owned variable; collect the
  // recycling candidates.
  std::vector<char> marked(static_cast<std::size_t>(numVars()), 0);
  std::vector<Var> candidates;
  bool any = false;
  for (const Lit actLit : activators) {
    const Var a = actLit.var();
    const int slot = scope_index_[a];
    if (slot < 0) continue;  // unknown or already retired
    assert(std::find(scope_stack_.begin(), scope_stack_.end(), a) ==
           scope_stack_.end());
    any = true;
    ++stats_.retired_scopes;
    marked[a] = 1;
    candidates.push_back(a);
    for (const Var v : scopes_[static_cast<std::size_t>(slot)].second.vars) {
      marked[v] = 1;
      candidates.push_back(v);
    }
    is_activator_[a] = 0;
    scope_index_[a] = -1;
    // Swap-and-pop: O(1) removal, fixing up the moved scope's index.
    if (static_cast<std::size_t>(slot) + 1 != scopes_.size()) {
      scopes_[static_cast<std::size_t>(slot)] = std::move(scopes_.back());
      scope_index_[scopes_[static_cast<std::size_t>(slot)].first] = slot;
    }
    scopes_.pop_back();
  }
  if (!any) return;

  // A level-0 assigned scope variable (an activator refuted by the rest
  // of the database) stays assigned and is burned rather than recycled;
  // record its unit as a lemma while the justifying clauses still exist
  // so the proof stays checkable.
  for (const Var v : candidates) {
    var_owner_[v] = kUndefVar;
    if (assigns_[v] != lbool::Undef) {
      const Lit unit(v, assigns_[v] == lbool::False);
      traceLemma({&unit, 1});
    }
  }

  // Long clauses: originals carry the scope tag; learnt descendants
  // carry the tag of *a* scope plus the guard literal, so the tag is a
  // fast path and the literal scan the safety net (a clause can descend
  // from several scopes).
  const auto sweep = [&](std::vector<CRef>& refs) {
    std::size_t j = 0;
    for (const CRef ref : refs) {
      ClauseRefView c = arena_[ref];
      bool kill = c.tagged() && marked[c.tag()] != 0;
      if (!kill) {
        for (const Lit p : c.lits()) {
          if (marked[p.var()] != 0) {
            kill = true;
            break;
          }
        }
      }
      if (kill) {
        stats_.reclaimed_bytes +=
            static_cast<std::int64_t>(c.size() + c.headerWords()) * 4;
        ++stats_.retired_clauses;
        removeClause(ref);
      } else {
        refs[j++] = ref;
      }
    }
    refs.resize(j);
  };
  sweep(clauses_);
  sweep(learnts_);

  // Binary clauses: every scope binary involves a marked variable (the
  // guard literal at least), so one sweep over the binary lists finds
  // them all; each clause is counted on its canonical direction only.
  for (int idx = 0; idx < watches_.numLits(); ++idx) {
    const Lit trigger = Lit::fromIndex(idx);
    const bool trigMarked = marked[trigger.var()] != 0;
    const std::span<BinWatch> ws = watches_.binList(trigger);
    std::uint32_t j = 0;
    for (const BinWatch bw : ws) {
      const Lit other = bw.implied();
      if (!trigMarked && marked[other.var()] == 0) {
        ws[j++] = bw;
        continue;
      }
      const Lit self = ~trigger;  // the clause literal watched via `idx`
      if (self.index() < other.index()) {
        if (bw.learnt()) {
          --num_bin_learnt_;
        } else {
          --num_bin_orig_;
        }
        ++stats_.retired_clauses;
        stats_.reclaimed_bytes +=
            static_cast<std::int64_t>(2 * sizeof(BinWatch));
        if (opts_.tracer != nullptr) {
          const std::array<Lit, 2> deleted{self, other};
          traceDeleted(deleted);
        }
      }
    }
    watches_.shrinkBin(trigger, j);
  }

  // Recycle the unassigned scope variables. All clauses over them are
  // gone, so their long watch lists hold only lazily detached watchers
  // of deleted clauses: drop them eagerly.
  for (const Var v : candidates) {
    if (assigns_[v] != lbool::Undef) continue;  // burned (see above)
    watches_.shrinkLong(posLit(v), 0);
    watches_.shrinkLong(negLit(v), 0);
    vardata_[v] = VarData{};
    decision_[v] = 0;  // out of pickBranchLit until reissued
    is_activator_[v] = 0;
    free_vars_.push_back(v);
    ++stats_.recycled_vars;
  }

  simp_db_assigns_ = -1;  // force the next simplify to re-sweep
  garbageCollectIfNeeded();
}

void Solver::appendScopeAssumptions(std::span<const Lit> userAssumptions) {
  if (scopes_.empty()) return;
  if (++assump_epoch_ == 0) {  // epoch wrap: clear stale stamps
    std::fill(assump_stamp_.begin(), assump_stamp_.end(), 0u);
    assump_epoch_ = 1;
  }
  for (const Lit p : userAssumptions) assump_stamp_[p.var()] = assump_epoch_;
  for (const auto& [act, rec] : scopes_) {
    if (assump_stamp_[act] == assump_epoch_) continue;  // caller override
    assumptions_.push_back(Lit(act, /*negative=*/!rec.enforced));
  }
}

void Solver::checkCrossScopeRefs(std::span<const Lit> lits) const {
  // Scope-contract checker: a clause may reference a variable owned by
  // (or guarding) a live scope only if that scope is open for emission,
  // or strictly older than the emitting scope (deliberate layering —
  // the referencing structure must then be retired first). Violations
  // would otherwise surface much later, as a retire() literal-scan
  // silently deleting a clause of a *different*, still-live scope.
  const Var cur = currentScopeTag();
  const std::uint64_t curBirth =
      cur == kUndefVar
          ? 0
          : scopes_[static_cast<std::size_t>(scope_index_[cur])].second.birth;
  for (const Lit p : lits) {
    const Var v = p.var();
    Var owner = var_owner_[v];
    if (owner == kUndefVar && is_activator_[v] != 0) owner = v;
    if (owner == kUndefVar) continue;
    if (std::find(scope_stack_.begin(), scope_stack_.end(), owner) !=
        scope_stack_.end()) {
      continue;
    }
    if (cur != kUndefVar) {
      const ScopeRec& ownerRec =
          scopes_[static_cast<std::size_t>(scope_index_[owner])].second;
      if (ownerRec.birth < curBirth) continue;  // older scope: layering
    }
    std::fprintf(stderr,
                 "msu: cross-scope reference: clause mentions var %d owned "
                 "by scope %d, which is neither open for emission nor older "
                 "than the emitting scope\n",
                 v, owner);
    std::abort();
  }
}

bool Solver::addClause(std::span<const Lit> lits) {
  assert(opts_.reuse_trail || decisionLevel() == 0);
  if (!ok_) return false;
  // Poisoned load (memory cap / arena overflow): swallow further
  // clauses without touching ok_ — engines read okay(), and a false
  // there means "hard clauses are UNSAT", which this is not. The next
  // pollAborted() surfaces AbortReason::kMemory instead.
  if (load_failed_) return true;
  maybeCheckLoadMem();
  if (load_failed_) return true;
  if (opts_.check_cross_scope) checkCrossScopeRefs(lits);
  traceAxiom(lits);

  add_tmp_.assign(lits.begin(), lits.end());
  std::vector<Lit>& ps = add_tmp_;

  // Sort and simplify against the level-0 assignment. Over a warm
  // reused trail only *root-fixed* literals qualify (rootValue ==
  // value at level 0, so the cold path is unchanged): a literal true
  // merely under the kept assumptions does not satisfy the clause
  // permanently.
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

  // Level-0 strengthening is itself a unit-propagation consequence;
  // record it so the checker's database matches the solver's.
  if (ps.size() != lits.size()) traceLemma(ps);

  if (ps.empty()) {
    if (decisionLevel() > 0) cancelUntil(0);
    ok_ = false;
    return false;
  }
  if (ps.size() == 1) {
    // Units always enter at the root; a warm trail cannot be kept
    // above a new top-level fact.
    if (decisionLevel() > 0) cancelUntil(0);
    uncheckedEnqueue(ps[0]);
    if (bulk_depth_ > 0) return true;  // one propagate() in endBulkLoad
    ok_ = propagate().isNone();
    if (!ok_) traceLemma({});  // level-0 conflict refutes the database
    return ok_;
  }
  if (decisionLevel() > 0) prepareWarmAttach(ps);
  if (ps.size() == 2) {
    if (bulk_depth_ > 0) {
      bulk_bins_.emplace_back(ps[0], ps[1]);
      return true;
    }
    attachBinary(ps[0], ps[1], /*learnt=*/false);
    return true;
  }
  if (arena_.wouldOverflow(ps.size())) {
    failLoadArenaOverflow(ps.size());
    return true;
  }
  noteAllocFault();
  const CRef ref = arena_.alloc(ps, /*learnt=*/false, currentScopeTag());
  clauses_.push_back(ref);
  if (bulk_depth_ > 0) {
    bulk_longs_.push_back(ref);
    return true;
  }
  attachClause(ref);
  return true;
}

void Solver::prepareWarmAttach(std::vector<Lit>& ps) {
  // Attaching over a warm trail is sound exactly when the clause is
  // neither unit nor falsified under the current assignment and its
  // watches sit on two non-false literals: backtracking can only grow
  // the non-false count, so the watch invariant ("no clause is unit or
  // falsified without being processed") holds from here on. When fewer
  // than two literals are non-false, backtrack to the deepest level
  // that unassigns enough of them — every root-false literal was
  // already stripped, so the required level exists and is >= 0.
  assert(decisionLevel() > 0 && ps.size() >= 2);
  int nonFalse = 0;
  int lvl1 = 0;  // highest false-literal level
  int lvl2 = 0;  // second-highest false-literal level
  for (const Lit p : ps) {
    if (value(p) == lbool::False) {
      const int l = level(p.var());
      assert(l > 0);
      if (l > lvl1) {
        lvl2 = lvl1;
        lvl1 = l;
      } else if (l > lvl2) {
        lvl2 = l;
      }
    } else {
      ++nonFalse;
    }
  }
  if (nonFalse < 2) {
    const int target = (nonFalse == 0 ? lvl2 : lvl1) - 1;
    cancelUntil(std::max(target, 0));
  }
  // Move two non-false literals into the watch slots.
  std::size_t filled = 0;
  for (std::size_t k = 0; k < ps.size() && filled < 2; ++k) {
    if (value(ps[k]) != lbool::False) {
      std::swap(ps[filled], ps[k]);
      ++filled;
    }
  }
  assert(filled == 2);
}

void Solver::attachClause(CRef ref) {
  ClauseRefView c = arena_[ref];
  assert(c.size() > 2);
  watches_.pushLong(~c[0], Watcher{ref, c[1]});
  watches_.pushLong(~c[1], Watcher{ref, c[0]});
}

void Solver::attachBinary(Lit a, Lit b, bool learnt) {
  watches_.pushBin(~a, BinWatch(b, learnt));
  watches_.pushBin(~b, BinWatch(a, learnt));
  if (learnt) {
    ++num_bin_learnt_;
  } else {
    ++num_bin_orig_;
  }
}

void Solver::beginBulkLoad() {
  if (bulk_depth_++ > 0) return;
  // Bulk loading is a root-level operation: a kept warm trail cannot
  // survive the batch of root facts about to arrive (the per-clause
  // path would cancel it at the first unit anyway).
  if (decisionLevel() > 0) cancelUntil(0);
}

bool Solver::endBulkLoad() {
  assert(bulk_depth_ > 0);
  if (--bulk_depth_ > 0) return ok_ && !load_failed_;
  bulkAttachAll();
  // One propagation pass over every unit the load enqueued. The
  // per-clause path propagates after each unit; deferring the whole
  // cascade to here is bulk mode's single semantic difference (see the
  // contract in solver.h).
  if (ok_ && qhead_ < trailSize()) {
    ok_ = propagate().isNone();
    if (!ok_) traceLemma({});  // level-0 conflict refutes the database
  }
  refreshMemStats();
  return ok_ && !load_failed_;
}

void Solver::bulkAttachAll() {
  assert(decisionLevel() == 0);
  if (bulk_bins_.empty() && bulk_longs_.empty()) return;
  // Counting pass: exact per-literal watch demand, so the reservation
  // below is one allocation per pool and every push lands in place.
  const std::size_t nlits = static_cast<std::size_t>(watches_.numLits());
  std::vector<std::uint32_t> binExtra(nlits, 0);
  std::vector<std::uint32_t> longExtra(nlits, 0);
  for (const auto& [a, b] : bulk_bins_) {
    ++binExtra[static_cast<std::size_t>((~a).index())];
    ++binExtra[static_cast<std::size_t>((~b).index())];
  }
  for (const CRef ref : bulk_longs_) {
    const ClauseRefView c = arena_[ref];
    ++longExtra[static_cast<std::size_t>((~c[0]).index())];
    ++longExtra[static_cast<std::size_t>((~c[1]).index())];
  }
  watches_.reserveExtra(binExtra, longExtra);
  // Attach in insertion order: binary and long watchers live in
  // separate pools, so per-literal list contents come out identical to
  // what per-clause addClause would have built.
  for (const auto& [a, b] : bulk_bins_) attachBinary(a, b, /*learnt=*/false);
  for (const CRef ref : bulk_longs_) attachClause(ref);
  bulk_bins_.clear();
  bulk_bins_.shrink_to_fit();
  bulk_longs_.clear();
  bulk_longs_.shrink_to_fit();
}

void Solver::removeClause(CRef ref) {
  ClauseRefView c = arena_[ref];
  if (opts_.tracer != nullptr) {
    std::vector<Lit> lits;
    lits.reserve(static_cast<std::size_t>(c.size()));
    for (int k = 0; k < c.size(); ++k) lits.push_back(c[k]);
    traceDeleted(lits);
  }
  // A reason clause must not keep dangling references.
  if (locked(ref)) vardata_[c[0].var()].reason = Reason::none();
  arena_.markWasted(c.size(), c.learnt(), c.tagged());
  c.markDeleted();
}

bool Solver::locked(CRef ref) const {
  const ClauseRefView c = arena_[ref];
  const Lit p = c[0];
  return value(p) == lbool::True && reason(p.var()) == Reason::clause(ref);
}

Reason Solver::propagate() {
  Reason confl = Reason::none();
  int bhead = qhead_;  // binary-phase head; always >= qhead_
  while (qhead_ < trailSize()) {
    // ---- Phase 1: saturate binary implications across the whole
    // pending trail before touching any long clause. The binary lists
    // store the implied literal inline (no arena access), so this
    // surfaces conflicts and forced literals at minimal cost and
    // shrinks the long-clause work that follows. ----
    while (bhead < trailSize()) {
      const Lit p = trail_[bhead++];
      const std::span<const BinWatch> bins = watches_.binList(p);
      for (std::size_t b = 0; b < bins.size(); ++b) {
        const Lit implied = bins[b].implied();
        const lbool v = value(implied);
        if (v == lbool::False) {
          stats_.watch_bytes_visited +=
              static_cast<std::int64_t>((b + 1) * sizeof(BinWatch));
          bin_confl_ = {implied, ~p};
          qhead_ = trailSize();
          return Reason::binary(~p);
        }
        if (v == lbool::Undef) {
          uncheckedEnqueue(implied, Reason::binary(~p));
          ++stats_.binary_propagations;
        }
      }
      stats_.watch_bytes_visited +=
          static_cast<std::int64_t>(bins.size() * sizeof(BinWatch));
    }

    // ---- Phase 2: long clauses over the flat watch pool ----
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const std::uint32_t off = watches_.longOffsetOf(p);
    const std::uint32_t n = watches_.longSizeOf(p);
    Watcher* ws = watches_.longPoolPtrAt(off);
    stats_.watch_bytes_visited +=
        static_cast<std::int64_t>(n * sizeof(Watcher));
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    while (i != n) {
      // Try the blocker first to avoid touching the clause.
      const Watcher w = ws[i];
      if (value(w.blocker) == lbool::True) {
        ++stats_.blocker_hits;
        ws[j++] = ws[i++];
        continue;
      }

      ClauseRefView c = arena_[w.cref];
      if (c.deleted()) {  // lazily detached by removeClause
        ++i;
        continue;
      }
      // Make sure the false literal is at position 1.
      const Lit falseLit = ~p;
      if (c[0] == falseLit) {
        c[0] = c[1];
        c[1] = falseLit;
      }
      assert(c[1] == falseLit);
      ++i;

      const Lit first = c[0];
      if (first != w.blocker && value(first) == lbool::True) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }

      // Look for a new literal to watch.
      bool foundWatch = false;
      for (int k = 2; k < c.size(); ++k) {
        if (value(c[k]) != lbool::False) {
          c[1] = c[k];
          c[k] = falseLit;
          watches_.pushLong(~c[1], Watcher{w.cref, first});
          ws = watches_.longPoolPtrAt(off);  // push may move the pool
          foundWatch = true;
          break;
        }
      }
      if (foundWatch) continue;

      // Clause is unit or conflicting.
      ws[j++] = Watcher{w.cref, first};
      if (value(first) == lbool::False) {
        confl = Reason::clause(w.cref);
        qhead_ = trailSize();
        // The tail is copied, not inspected — don't count it as visited.
        stats_.watch_bytes_visited -=
            static_cast<std::int64_t>((n - i) * sizeof(Watcher));
        while (i != n) ws[j++] = ws[i++];
      } else {
        uncheckedEnqueue(first, Reason::clause(w.cref));
        ++stats_.long_propagations;
      }
    }
    watches_.shrinkLong(p, j);
    if (!confl.isNone()) break;
  }
  return confl;
}

void Solver::cancelUntil(int level) {
  if (decisionLevel() <= level) return;
  for (int i = trailSize() - 1; i >= trail_lim_[level]; --i) {
    const Var v = trail_[i].var();
    assigns_[v] = lbool::Undef;
    if (opts_.phase_saving) polarity_[v] = trail_[i].positive() ? 0 : 1;
    if (decision_[v] && !order_heap_.contains(v)) order_heap_.insert(v);
  }
  qhead_ = trail_lim_[level];
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
}

Lit Solver::pickBranchLit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.removeMax();
    if (assigns_[v] == lbool::Undef && decision_[v]) {
      return Lit(v, polarity_[v] != 0);
    }
  }
  return kUndefLit;
}

void Solver::varBumpActivity(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kVarRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.update(v);
}

void Solver::claBumpActivity(ClauseRefView c) {
  c.setActivity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > kClaRescaleLimit) {
    for (CRef ref : learnts_) {
      ClauseRefView lc = arena_[ref];
      lc.setActivity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

void Solver::analyze(Reason confl, std::vector<Lit>& outLearnt,
                     int& outBtLevel) {
  int pathC = 0;
  Lit p = kUndefLit;
  outLearnt.clear();
  outLearnt.push_back(kUndefLit);  // placeholder for the asserting literal
  int index = trailSize() - 1;

  do {
    assert(!confl.isNone());
    // Antecedent literals: binary reasons resolve inline (no arena
    // access); clause reasons keep the propagated literal at slot 0.
    std::array<Lit, 2> binLits;
    std::span<const Lit> lits;
    if (confl.isBinary()) {
      binLits = (p == kUndefLit) ? bin_confl_
                                 : std::array<Lit, 2>{p, confl.other()};
      lits = binLits;
    } else {
      ClauseRefView c = arena_[confl.cref()];
      if (c.learnt()) claBumpActivity(c);
      lits = c.lits();
    }

    for (int k = (p == kUndefLit) ? 0 : 1;
         k < static_cast<int>(lits.size()); ++k) {
      const Lit q = lits[k];
      const Var v = q.var();
      if (!seen_[v] && level(v) > 0) {
        varBumpActivity(v);
        seen_[v] = 1;
        if (level(v) >= decisionLevel()) {
          ++pathC;
        } else {
          outLearnt.push_back(q);
        }
      }
    }

    // Select next literal on the trail to expand.
    while (!seen_[trail_[index--].var()]) {
    }
    p = trail_[index + 1];
    confl = reason(p.var());
    seen_[p.var()] = 0;
    --pathC;
  } while (pathC > 0);
  outLearnt[0] = ~p;

  // Conflict clause minimization.
  analyze_toclear_ = outLearnt;
  std::size_t j = 1;
  if (opts_.ccmin_mode == 2) {
    std::uint32_t abstractLevel = 0;
    for (std::size_t i = 1; i < outLearnt.size(); ++i) {
      abstractLevel |= 1u << (level(outLearnt[i].var()) & 31);
    }
    for (std::size_t i = 1; i < outLearnt.size(); ++i) {
      if (reason(outLearnt[i].var()).isNone() ||
          !litRedundant(outLearnt[i], abstractLevel)) {
        outLearnt[j++] = outLearnt[i];
      }
    }
  } else if (opts_.ccmin_mode == 1) {
    for (std::size_t i = 1; i < outLearnt.size(); ++i) {
      const Reason r = reason(outLearnt[i].var());
      if (r.isNone()) {
        outLearnt[j++] = outLearnt[i];
        continue;
      }
      bool keep = false;
      if (r.isBinary()) {
        const Lit o = r.other();
        keep = !seen_[o.var()] && level(o.var()) > 0;
      } else {
        ClauseRefView c = arena_[r.cref()];
        for (int k = 1; k < c.size(); ++k) {
          if (!seen_[c[k].var()] && level(c[k].var()) > 0) {
            keep = true;
            break;
          }
        }
      }
      if (keep) outLearnt[j++] = outLearnt[i];
    }
  } else {
    j = outLearnt.size();
  }
  stats_.minimized_literals +=
      static_cast<std::int64_t>(outLearnt.size() - j);
  outLearnt.resize(j);

  // Find the backtrack level (second highest level in the clause).
  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    std::size_t maxI = 1;
    for (std::size_t i = 2; i < outLearnt.size(); ++i) {
      if (level(outLearnt[i].var()) > level(outLearnt[maxI].var())) maxI = i;
    }
    std::swap(outLearnt[1], outLearnt[maxI]);
    outBtLevel = level(outLearnt[1].var());
  }

  for (Lit q : analyze_toclear_) seen_[q.var()] = 0;
}

bool Solver::litRedundant(Lit p, std::uint32_t abstractLevels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t topClear = analyze_toclear_.size();

  // Visits one antecedent literal; false means `p` cannot be resolved
  // away and all marks made during this call must be undone.
  const auto visit = [&](Lit r) {
    const Var v = r.var();
    if (seen_[v] || level(v) == 0) return true;
    if (!reason(v).isNone() &&
        ((1u << (level(v) & 31)) & abstractLevels) != 0) {
      seen_[v] = 1;
      analyze_stack_.push_back(r);
      analyze_toclear_.push_back(r);
      return true;
    }
    return false;
  };
  const auto undo = [&]() {
    for (std::size_t k = topClear; k < analyze_toclear_.size(); ++k) {
      seen_[analyze_toclear_[k].var()] = 0;
    }
    analyze_toclear_.resize(topClear);
    return false;
  };

  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const Reason r = reason(q.var());
    assert(!r.isNone());
    if (r.isBinary()) {
      if (!visit(r.other())) return undo();
    } else {
      ClauseRefView c = arena_[r.cref()];
      for (int k = 1; k < c.size(); ++k) {
        if (!visit(c[k])) return undo();
      }
    }
  }
  return true;
}

void Solver::analyzeFinal(Lit p, std::vector<Lit>& outConflict) {
  outConflict.clear();
  outConflict.push_back(p);
  if (decisionLevel() == 0) return;

  seen_[p.var()] = 1;
  for (int i = trailSize() - 1; i >= trail_lim_[0]; --i) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    const Reason r = reason(v);
    if (r.isNone()) {
      assert(level(v) > 0);
      outConflict.push_back(~trail_[i]);
    } else if (r.isBinary()) {
      const Lit o = r.other();
      if (level(o.var()) > 0) seen_[o.var()] = 1;
    } else {
      ClauseRefView c = arena_[r.cref()];
      for (int k = 1; k < c.size(); ++k) {
        if (level(c[k].var()) > 0) seen_[c[k].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

std::uint32_t Solver::computeLbd(std::span<const Lit> lits) {
  // Number of distinct decision levels among the literals. Learnt
  // clauses are short; a sort beats a stamp array here.
  lbd_scratch_.clear();
  for (const Lit p : lits) lbd_scratch_.push_back(level(p.var()));
  std::sort(lbd_scratch_.begin(), lbd_scratch_.end());
  lbd_scratch_.erase(std::unique(lbd_scratch_.begin(), lbd_scratch_.end()),
                     lbd_scratch_.end());
  return static_cast<std::uint32_t>(lbd_scratch_.size());
}

Var Solver::learntTagFor(std::span<const Lit> lits) const {
  // A learnt descendant of scope clauses carries the scope's guard
  // literal; tag it with the first live activator found so retire()'s
  // fast path catches it.
  for (const Lit p : lits) {
    if (is_activator_[p.var()] != 0) return p.var();
  }
  return kUndefVar;
}

void Solver::recordLearnt(std::span<const Lit> learntClause) {
  if (learntClause.size() == 1) {
    uncheckedEnqueue(learntClause[0]);
  } else if (learntClause.size() == 2) {
    attachBinary(learntClause[0], learntClause[1], /*learnt=*/true);
    uncheckedEnqueue(learntClause[0], Reason::binary(learntClause[1]));
  } else {
    const Var tag = scopes_.empty() ? kUndefVar : learntTagFor(learntClause);
    noteAllocFault();
    const CRef ref = arena_.alloc(learntClause, /*learnt=*/true, tag);
    learnts_.push_back(ref);
    attachClause(ref);
    claBumpActivity(arena_[ref]);
    uncheckedEnqueue(learntClause[0], Reason::clause(ref));
  }
  ++stats_.learnt_clauses;
  stats_.learnt_literals += static_cast<std::int64_t>(learntClause.size());
}

void Solver::reduceDB() {
  // MiniSat-style: sort by activity, keep the active half. (Binary
  // learnt clauses live outside the arena and are always kept.)
  std::sort(learnts_.begin(), learnts_.end(), [&](CRef a, CRef b) {
    return arena_[a].activity() < arena_[b].activity();
  });
  const double extraLim =
      cla_inc_ / std::max<std::size_t>(learnts_.size(), 1);

  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    ClauseRefView c = arena_[learnts_[i]];
    if (!locked(learnts_[i]) &&
        (i < learnts_.size() / 2 || c.activity() < extraLim)) {
      removeClause(learnts_[i]);
      ++stats_.removed_clauses;
    } else {
      learnts_[j++] = learnts_[i];
    }
  }
  learnts_.resize(j);
  garbageCollectIfNeeded();
}

void Solver::removeSatisfied(std::vector<CRef>& refs) {
  std::size_t j = 0;
  for (CRef ref : refs) {
    ClauseRefView c = arena_[ref];
    bool sat = false;
    for (int k = 0; k < c.size(); ++k) {
      if (value(c[k]) == lbool::True) {
        sat = true;
        break;
      }
    }
    if (sat) {
      removeClause(ref);
    } else {
      refs[j++] = ref;
    }
  }
  refs.resize(j);
}

void Solver::removeSatisfiedBinaries() {
  assert(decisionLevel() == 0);
  for (int idx = 0; idx < watches_.numLits(); ++idx) {
    const Lit trigger = Lit::fromIndex(idx);
    const Lit a = ~trigger;  // the clause literal watched through `idx`
    const std::span<BinWatch> ws = watches_.binList(trigger);
    std::uint32_t j = 0;
    for (const BinWatch bw : ws) {
      const bool sat =
          value(a) == lbool::True || value(bw.implied()) == lbool::True;
      if (!sat) {
        ws[j++] = bw;
        continue;
      }
      // Each binary clause appears once per direction; trace and count
      // it on the canonical (lower-index-first) visit only.
      if (a.index() < bw.implied().index()) {
        if (bw.learnt()) {
          --num_bin_learnt_;
        } else {
          --num_bin_orig_;
        }
        if (opts_.tracer != nullptr) {
          const std::array<Lit, 2> deleted{a, bw.implied()};
          traceDeleted(deleted);
        }
      }
    }
    watches_.shrinkBin(trigger, j);
  }
}

bool Solver::simplify() {
  assert(decisionLevel() == 0);
  if (!ok_ || !propagate().isNone()) {
    if (ok_) traceLemma({});  // fresh level-0 conflict: database refuted
    ok_ = false;
    return false;
  }
  if (trailSize() == simp_db_assigns_) return true;

  removeSatisfied(learnts_);
  removeSatisfied(clauses_);
  removeSatisfiedBinaries();
  garbageCollectIfNeeded();
  rebuildOrderHeap();
  simp_db_assigns_ = trailSize();
  return true;
}

void Solver::rebuildOrderHeap() {
  std::vector<Var> vs;
  vs.reserve(static_cast<std::size_t>(numVars()));
  for (Var v = 0; v < numVars(); ++v) {
    if (decision_[v] && assigns_[v] == lbool::Undef) vs.push_back(v);
  }
  order_heap_.build(vs);
}

void Solver::garbageCollectIfNeeded() {
  if (arena_.wasted() <
      static_cast<std::size_t>(
          static_cast<double>(arena_.size()) * opts_.garbage_frac)) {
    // No arena GC: the flat watch pools still defragment on the same
    // trigger points, independent of the arena's waste level.
    watches_.compactIfWasteful();
    return;
  }
  ClauseArena to;
  relocAll(to);  // ends by compacting the watch pools
  arena_.adopt(std::move(to));
  ++stats_.gc_runs;
}

void Solver::relocAll(ClauseArena& to) {
  // Watchers: drop lazily detached (deleted) clauses, relocate the rest.
  for (int idx = 0; idx < watches_.numLits(); ++idx) {
    const Lit p = Lit::fromIndex(idx);
    const std::span<Watcher> ws = watches_.longList(p);
    std::uint32_t j = 0;
    for (Watcher w : ws) {
      if (arena_[w.cref].deleted()) continue;
      arena_.reloc(w.cref, to);
      ws[j++] = w;
    }
    watches_.shrinkLong(p, j);
  }
  // Reasons (binary reasons live outside the arena; only clause reasons
  // relocate — and only those still locked are live).
  for (Lit p : trail_) {
    const Var v = p.var();
    Reason& r = vardata_[v].reason;
    if (!r.isClause() || r.isNone()) continue;
    CRef ref = r.cref();
    if (arena_[ref].deleted() && !locked(ref)) {
      r = Reason::none();
    } else {
      arena_.reloc(ref, to);
      r = Reason::clause(ref);
    }
  }
  // Clause lists.
  for (CRef& ref : learnts_) arena_.reloc(ref, to);
  for (CRef& ref : clauses_) arena_.reloc(ref, to);
  // GC is also the watch pools' compaction hook.
  watches_.compact();
}

bool Solver::withinBudget() const {
  if (budget_.conflictsExhausted(stats_.conflicts)) return false;
  // Wall-clock checks are amortized by the caller (search loop).
  return true;
}

std::int64_t Solver::memBytesEstimate() const {
  std::int64_t b = 0;
  // Clause storage: arena capacity plus both watch pools.
  b += static_cast<std::int64_t>(arena_.bytes());
  b += static_cast<std::int64_t>(watches_.bytes());
  // Per-variable state (the vectors indexed by Var / Lit that grow with
  // newVar). Charged by slot count, not capacity — the constant is what
  // matters for a cap, and slots dominate capacity slack here.
  constexpr std::int64_t kPerVarBytes =
      sizeof(lbool) + sizeof(VarData) + 4 * sizeof(char) +  // assigns,
      // vardata, polarity/decision/seen/best_phase
      sizeof(double) +                                 // activity
      sizeof(char) +                                   // activator
      sizeof(int) + sizeof(Var) + sizeof(std::uint32_t) +  // scope maps
      2 * sizeof(double);  // order-heap entry + index (amortized)
  b += static_cast<std::int64_t>(numVars()) * kPerVarBytes;
  // Bookkeeping proportional to the database.
  b += static_cast<std::int64_t>(trail_.capacity()) * sizeof(Lit);
  b += static_cast<std::int64_t>(clauses_.capacity() + learnts_.capacity()) *
       static_cast<std::int64_t>(sizeof(CRef));
  // Deferred bulk-load attachments (transient, but real while a load is
  // in flight — exactly when a cap matters most) and bytes the owning
  // layer charged to this solver (parse buffers, formula storage).
  b += static_cast<std::int64_t>(bulk_bins_.capacity() *
                                     sizeof(std::pair<Lit, Lit>) +
                                 bulk_longs_.capacity() * sizeof(CRef));
  b += opts_.external_mem_bytes;
  return b;
}

void Solver::refreshMemStats() {
  stats_.mem_arena_bytes = static_cast<std::int64_t>(arena_.bytes());
  stats_.mem_watch_bytes = static_cast<std::int64_t>(watches_.bytes());
  stats_.mem_external_bytes = opts_.external_mem_bytes;
  stats_.mem_bytes = memBytesEstimate();
}

void Solver::maybeCheckLoadMem() {
  if (--load_mem_countdown_ > 0) return;
  load_mem_countdown_ = kLoadMemCheckPeriod;
  if (!budget_.hasMemoryCap()) return;
  refreshMemStats();
  if (budget_.memoryExhausted(stats_.mem_bytes)) load_failed_ = true;
}

void Solver::failLoadArenaOverflow(std::size_t clauseLits) {
  if (!load_failed_) {
    std::fprintf(stderr,
                 "msu: clause arena full: a %zu-literal clause would push a "
                 "clause reference past the 31-bit cap (2^31 words = 8 GiB "
                 "of clause storage); failing the load cooperatively with "
                 "AbortReason::memory\n",
                 clauseLits);
  }
  load_failed_ = true;
  budget_.noteAbort(AbortReason::kMemory);
}

bool Solver::pollAborted() {
  // Fault injection first: a forced expiry must win even when no real
  // limit is near (the injector simulates exactly that situation).
  if (opts_.fault != nullptr && opts_.fault->onPoll()) {
    budget_.noteAbort(AbortReason::kFault);
    return true;
  }
  if (budget_.timeExpired()) return true;
  if (alloc_failed_ || load_failed_) {
    // A simulated allocation failure — or a poisoned load (memory cap
    // or arena-ref overflow during addClause) — behaves like the memory
    // cap tripping: cooperative unwind, structured reason, no
    // corruption.
    budget_.noteAbort(AbortReason::kMemory);
    return true;
  }
  if (budget_.hasMemoryCap()) {
    refreshMemStats();
    if (budget_.memoryExhausted(stats_.mem_bytes)) return true;
  }
  return false;
}

lbool Solver::search(std::int64_t conflictsBeforeRestart) {
  assert(ok_);
  std::int64_t conflictC = 0;

  while (true) {
    const Reason confl = propagate();
    if (!confl.isNone()) {
      // Conflict.
      ++stats_.conflicts;
      ++conflictC;
      if (decisionLevel() == 0) {
        traceLemma({});  // conflict below all assumptions: refutation
        return lbool::False;
      }
      const int confTrail =
          conflictsBeforeRestart < 0 ? trailSize() : 0;  // adaptive only
      if (conflictsBeforeRestart < 0 && confTrail > best_trail_) {
        // Remember the deepest assignment as the best phase NOW, while
        // the trail still holds it — the backtrack below discards it.
        best_trail_ = confTrail;
        captureBestPhase();
      }

      int backtrackLevel = 0;
      analyze(confl, learnt_scratch_, backtrackLevel);
      traceLemma(learnt_scratch_);
      // Only the adaptive segment's restart trigger reads the LBD.
      const std::uint32_t lbd =
          conflictsBeforeRestart < 0 ? computeLbd(learnt_scratch_) : 0;
      cancelUntil(backtrackLevel);
      recordLearnt(learnt_scratch_);

      varDecayActivity();
      claDecayActivity();

      if (conflictsBeforeRestart < 0) {
        // Adaptive (EMA) segment: feed the restart trigger and block
        // restarts while the assignment is unusually deep (glucose's
        // trail heuristic — the solver looks close to a model, let it
        // dig).
        restart_ema_.update(static_cast<double>(lbd));
        trail_ema_.update(static_cast<double>(confTrail), kEmaTrailAlpha);
        if (conflictC >= kEmaMinConflicts &&
            static_cast<double>(confTrail) >
                kEmaBlockMargin * trail_ema_.value) {
          restart_ema_.block();
          ++stats_.restarts_blocked;
        }
      }

      if ((stats_.conflicts & 255) == 0 && pollAborted()) {
        cancelUntil(0);
        return lbool::Undef;
      }
    } else {
      // No conflict.
      const bool restartNow =
          conflictsBeforeRestart >= 0
              ? conflictC >= conflictsBeforeRestart
              : (conflictC >= kEmaMinConflicts &&
                 restart_ema_.shouldRestart(kEmaMargin));
      if (restartNow || !withinBudget()) {
        cancelUntil(0);
        return lbool::Undef;
      }

      if (decisionLevel() == 0 && !simplify()) return lbool::False;

      if (static_cast<double>(numLearnts()) - trailSize() >= max_learnts_) {
        reduceDB();
      }

      Lit next = kUndefLit;
      while (decisionLevel() < static_cast<int>(assumptions_.size())) {
        const Lit p = assumptions_[decisionLevel()];
        if (value(p) == lbool::True) {
          newDecisionLevel();  // dummy level, already satisfied
        } else if (value(p) == lbool::False) {
          std::vector<Lit> negCore;
          analyzeFinal(~p, negCore);
          core_.clear();
          core_.reserve(negCore.size());
          for (Lit q : negCore) core_.push_back(~q);
          return lbool::False;
        } else {
          next = p;
          break;
        }
      }

      if (next == kUndefLit) {
        next = pickBranchLit();
        if (next == kUndefLit) {
          // All variables assigned: model found.
          return lbool::True;
        }
        ++stats_.decisions;
      }

      newDecisionLevel();
      uncheckedEnqueue(next);
    }
  }
}

lbool Solver::solve(std::span<const Lit> assumptions) {
  obs::TraceSpan solveSpan(opts_.trace, obs::TraceCat::kOracle, "solve");
  const std::int64_t traceConflicts0 = stats_.conflicts;
  ++stats_.solves;
  model_.clear();
  core_.clear();
  assumptions_.assign(assumptions.begin(), assumptions.end());
  if (!ok_) return lbool::False;
  if (opts_.fault != nullptr && opts_.fault->onSolve()) {
    // Injected spurious give-up: the oracle "fails" before doing any
    // work, which MaxSAT engines must absorb without corrupting bounds.
    budget_.noteAbort(AbortReason::kFault);
    return lbool::Undef;
  }
  if (pollAborted() || !withinBudget()) return lbool::Undef;

  // Every live encoding scope is decided up front: its activator when
  // enforced, the negation when disabled. This is what keeps physical
  // retirement sound — scope clauses can never propagate their own
  // guard, so every learnt descendant carries it (see the file comment
  // in solver.h).
  appendScopeAssumptions(assumptions);
  stats_.restart_mode = restartModeGauge();

  // Warm start (Options::reuse_trail): the previous solve left its
  // trail in place, and level i of it corresponds to
  // prev_assumptions_[i-1]. Keep the longest prefix of levels whose
  // assumptions the new sequence repeats verbatim and backtrack only to
  // the first divergence.
  if (decisionLevel() > 0) {
    assert(opts_.reuse_trail);
    const int bound =
        std::min({static_cast<int>(prev_assumptions_.size()),
                  static_cast<int>(assumptions_.size()), decisionLevel()});
    int keep = 0;
    while (keep < bound &&
           prev_assumptions_[static_cast<std::size_t>(keep)] ==
               assumptions_[static_cast<std::size_t>(keep)]) {
      ++keep;
    }
    cancelUntil(keep);
    if (decisionLevel() > 0) {
      stats_.reused_trail_lits += trailSize() - trail_lim_[0];
    }
  }
  prev_assumptions_ = assumptions_;

  if (decisionLevel() == 0 && !simplify()) {
    assumptions_.clear();
    return lbool::False;
  }

  // Reserve the conflict-analysis scratch once per solve instead of
  // growing it inside the hot loop.
  const std::size_t scratch = static_cast<std::size_t>(numVars());
  analyze_stack_.reserve(scratch);
  analyze_toclear_.reserve(scratch);
  learnt_scratch_.reserve(scratch);
  lbd_scratch_.reserve(scratch);

  max_learnts_ = std::max(
      static_cast<double>(numClauses()) * opts_.learntsize_factor, 100.0);

  lbool status = lbool::Undef;
  for (int restarts = 0; status == lbool::Undef; ++restarts) {
    if (pollAborted() || !withinBudget()) break;
    std::int64_t pace;
    if (opts_.ema_restarts) {
      maybeSwitchMode();
      // Focused phases restart adaptively (EMA trigger inside search);
      // stable phases restart on a long Luby schedule and dig.
      pace = stable_mode_
                 ? static_cast<std::int64_t>(
                       lubySequence(2.0, stable_luby_idx_++) *
                       opts_.restart_base * kStableRestartMult)
                 : -1;
    } else {
      const double restartBase =
          opts_.luby_restarts
              ? lubySequence(2.0, restarts)
              : std::pow(kRestartInc, restarts);
      pace = static_cast<std::int64_t>(restartBase * opts_.restart_base);
    }
    {
      obs::TraceSpan restartSpan(opts_.trace, obs::TraceCat::kRestart,
                                 "restart");
      const std::int64_t segC0 = stats_.conflicts;
      status = search(pace);
      restartSpan.arg("conflicts", stats_.conflicts - segC0);
    }
    ++stats_.restarts;
    max_learnts_ *= opts_.learntsize_inc;
  }

  if (status == lbool::True) {
    // Search assigned every decision variable; false completes the rest
    // (non-decision variables, solver.h).
    model_.resize(static_cast<std::size_t>(numVars()));
    for (Var v = 0; v < numVars(); ++v) {
      model_[v] = assigns_[v] == lbool::Undef ? lbool::False : assigns_[v];
    }
    assert(modelSatisfiesDatabase());
  } else if (status == lbool::False && core_.empty()) {
    // Unsatisfiable independently of the assumptions.
    ok_ = false;
  }

  // Warm-started solvers keep the trail for the next call; everyone
  // else rewinds to the root as before.
  if (!opts_.reuse_trail) cancelUntil(0);
  assumptions_.clear();
  refreshMemStats();
  solveSpan.arg("conflicts", stats_.conflicts - traceConflicts0);
  return status;
}

bool Solver::modelSatisfiesDatabase() const {
  const auto holds = [&](Lit p) { return modelValue(p) == lbool::True; };
  for (const CRef ref : clauses_) {
    const ClauseRefView c = arena_[ref];
    if (!c.deleted() && std::none_of(c.lits().begin(), c.lits().end(), holds)) {
      return false;
    }
  }
  // The binary (~p | q) sits in binList(p) as the implied literal q.
  for (int idx = 0; idx < watches_.numLits(); ++idx) {
    const Lit p = Lit::fromIndex(idx);
    for (const BinWatch bw : watches_.binList(p)) {
      if (!bw.learnt() && !holds(~p) && !holds(bw.implied())) return false;
    }
  }
  return true;
}

int Solver::nonDecisionPositives(std::span<const Lit> ps) const {
  return static_cast<int>(std::count_if(ps.begin(), ps.end(), [&](Lit p) {
    return p.positive() && decision_[p.var()] == 0;
  }));
}

void Solver::maybeSwitchMode() {
  if (mode_interval_ == 0) {
    // First solve in EMA mode: start focused, schedule the first switch.
    mode_interval_ = opts_.mode_switch_conflicts;
    next_mode_switch_ = stats_.conflicts + mode_interval_;
  }
  if (stats_.conflicts >= next_mode_switch_) {
    stable_mode_ = !stable_mode_;
    ++stats_.mode_switches;
    mode_interval_ *= 2;
    next_mode_switch_ = stats_.conflicts + mode_interval_;
    if (stable_mode_) {
      // Entering a stable phase: adopt the deepest trail's polarities
      // (best-phase rephasing) and restart the stable Luby schedule.
      polarity_ = best_phase_;
      stable_luby_idx_ = 0;
    } else {
      // Fresh focused phase: capture a new best trail from scratch.
      best_trail_ = 0;
    }
  }
  stats_.restart_mode = restartModeGauge();
}

void Solver::captureBestPhase() {
  for (const Lit p : trail_) {
    best_phase_[p.var()] = p.positive() ? 0 : 1;
  }
}

int Solver::numFixedVars() const {
  return trail_lim_.empty() ? trailSize() : trail_lim_[0];
}

}  // namespace msu
