#include "core/incremental_atmost.h"

#include <algorithm>
#include <cassert>

namespace msu {

void IncrementalAtMost::retireCurrent(ClauseSink& sink) {
  if (!scope_.defined()) return;
  sink.retireScope(scope_);
  scope_ = ScopeHandle{};
  scope_bound_ = -1;
  scope_enforced_ = true;
  covered_.clear();
}

const std::vector<Lit>& IncrementalAtMost::cover(ClauseSink& sink,
                                                 const std::vector<Lit>& lits,
                                                 int k) {
  // Callers pass an append-only list (SoftTracker::blockingLits() or a
  // fixed one), so `lits` extends `covered_` as a prefix.
  assert(lits.size() >= covered_.size() &&
         std::equal(covered_.begin(), covered_.end(), lits.begin()));
  const std::span<const Lit> suffix(lits.data() + covered_.size(),
                                    lits.size() - covered_.size());
  covered_ = lits;
  if (enc_ == CardEncoding::Totalizer) {
    if (!totalizer_) {
      totalizer_.emplace(sink, suffix);
    } else {
      totalizer_->addInputs(suffix);
    }
    return totalizer_->outputs();
  }
  // Sorter: sort only the new literals and join them to the outputs,
  // both for bounds of k or less.
  if (!suffix.empty()) {
    outputs_ =
        joinSorted(sink, outputs_, buildSortingNetwork(sink, suffix, k), k);
  }
  return outputs_;
}

void IncrementalAtMost::assertAtMost(ClauseSink& sink,
                                     const std::vector<Lit>& lits, int k) {
  ++num_asserted_;
  const int n = static_cast<int>(lits.size());
  if (k >= n) return;
  assert(lits.size() >= covered_.size());

  if (reuse_ && growsInPlace()) {
    // Permanent incremental structure; the monotone bound units live in
    // a permanent scope of their own rather than as raw units (which
    // would change the search). The scope is never retired and stays
    // enforced, so every unit holds from then on. The literal set only
    // grows and the bound never loosens, so every earlier unit stays
    // implied, and the sorter keeps no outputs above the tightest
    // bound: a looser one is left to the earlier unit.
    if (k > tightest_) return;
    tightest_ = k;
    std::vector<Lit> unit;  // empty for k < 0: falsum
    if (k >= 0) {
      const std::vector<Lit>& out = cover(sink, lits, k);
      assert(static_cast<std::size_t>(k) < out.size());
      unit.push_back(~out[static_cast<std::size_t>(k)]);
    }
    if (!unit_scope_.defined()) {
      unit_scope_ = sink.beginScope();
    } else {
      sink.reopenScope(unit_scope_);
    }
    sink.addClause(unit);
    sink.endScope(unit_scope_);
    return;
  }

  // No reuse (or a non-incremental encoding): each call re-encodes into
  // a fresh scope, physically retiring the predecessor instead of
  // leaving it behind as dead hard clauses.
  retireCurrent(sink);
  scope_ = sink.beginScope();
  encodeAtMost(sink, lits, k, enc_);
  sink.endScope(scope_);
  covered_ = lits;
  scope_bound_ = k;
}

std::optional<Lit> IncrementalAtMost::assumeAtMost(
    ClauseSink& sink, const std::vector<Lit>& lits, int k) {
  ++num_asserted_;
  const int n = static_cast<int>(lits.size());
  if (k >= n) {
    // Trivial bound: nothing to assume; park the live scope.
    if (scope_.defined() && scope_enforced_) {
      sink.setScopeEnforced(scope_, false);
      scope_enforced_ = false;
    }
    return std::nullopt;
  }
  assert(k >= 0);

  if (growsInPlace()) {
    // Bounds may loosen: keep every output.
    return ~cover(sink, lits, n - 1)[static_cast<std::size_t>(k)];
  }

  // BDD: one scope per (set, bound); any change retires the
  // predecessor. Enforcement rides on the auto-assumed activator, so
  // there is nothing extra to assume.
  if (!scope_.defined() || lits != covered_ || k != scope_bound_) {
    retireCurrent(sink);
    scope_ = sink.beginScope();
    encodeAtMost(sink, lits, k, enc_);
    sink.endScope(scope_);
    covered_ = lits;
    scope_bound_ = k;
    scope_enforced_ = true;
  } else if (!scope_enforced_) {
    sink.setScopeEnforced(scope_, true);
    scope_enforced_ = true;
  }
  return std::nullopt;
}

AssumableAtMost::AssumableAtMost(ClauseSink& sink, std::vector<Lit> lits,
                                 CardEncoding enc)
    : sink_(&sink), lits_(std::move(lits)), enc_(enc) {
  if (enc_ == CardEncoding::Sorter) {
    // Every output is kept: the search may assume any bound.
    outputs_ =
        buildSortingNetwork(sink, lits_, static_cast<int>(lits_.size()) - 1);
  } else if (enc_ == CardEncoding::Totalizer) {
    Totalizer tot(sink, lits_);
    outputs_ = tot.outputs();
  }
  scopes_.assign(lits_.size() + 1, ScopeHandle{});
}

std::optional<Lit> AssumableAtMost::boundLit(int k) {
  const int n = static_cast<int>(lits_.size());
  if (k >= n) return std::nullopt;
  assert(k >= 0);
  if (enc_ == CardEncoding::Sorter || enc_ == CardEncoding::Totalizer) {
    return ~outputs_[static_cast<std::size_t>(k)];
  }
  ScopeHandle& scope = scopes_[static_cast<std::size_t>(k)];
  if (!scope.defined()) {
    // Build the bound in its own *disabled* scope: the activator is the
    // assumption handle (assuming it overrides the automatic negative
    // assumption), and retirement is one retireScope away.
    scope = sink_->beginScope();
    // The BDD root is a biconditional for the constraint; asserting it
    // under the scope guard yields act -> constraint.
    const Lit root = buildAtMostBdd(*sink_, lits_, k);
    sink_->addClause({root});
    sink_->endScope(scope);
    sink_->setScopeEnforced(scope, false);
  }
  // The scope's activator doubles as the assumption literal — an
  // explicit handle-to-literal escape.
  return scope.activator();
}

void AssumableAtMost::pruneOutside(int lo, int hi) {
  for (int k = 0; k < static_cast<int>(scopes_.size()); ++k) {
    if (k >= lo && k < hi) continue;
    ScopeHandle& scope = scopes_[static_cast<std::size_t>(k)];
    if (!scope.defined()) continue;
    sink_->retireScope(scope);
    scope = ScopeHandle{};
  }
}

}  // namespace msu
