/// \file sink.h
/// \brief Abstraction over "something clauses can be added to": the CDCL
///        solver during search, or a plain formula when building CNF
///        offline (tests, file export). All encoders target this
///        interface so every encoding is usable in both settings.
///
/// ## Encoding scopes (the session model)
///
/// Incremental MaxSAT engines re-encode cardinality/PB structures as
/// their bounds and literal sets evolve; the predecessor structure must
/// then be *retired* rather than left to rot in the clause database.
/// The sink makes this a first-class lifecycle:
///
///   ScopeHandle sc = sink.beginScope(); // open a scope
///   encodeAtMost(sink, lits, k, enc);   // clauses get the guard appended
///   sink.endScope(sc);                  // close (emission complete)
///   ...                                 // constraint active while enforced
///   sink.retireScope(sc);               // discard the whole structure
///
/// Scopes are addressed by an opaque ScopeHandle rather than a raw
/// activator Lit, so a selector or blocking literal can never be passed
/// where a scope is expected (and vice versa) without an explicit —
/// visible — conversion.
///
/// Every clause emitted inside a scope is guarded by the scope's
/// activator: the constraint is enforced exactly when the activator is
/// true. A `SolverSink` maps scopes onto the solver's native
/// retirement machinery (clause tagging, physical deletion, variable
/// recycling, automatic activator assumptions — see solver.h); for
/// formula sinks, `retireScope` falls back to the classic logical
/// retirement (unit-asserting the negated activator).
///
/// Scopes must be self-contained: clauses emitted after a scope ends
/// must not mention its variables (they may be recycled at any time
/// after retireScope). `trueLit()` is scope-independent — it is always
/// created unguarded and unowned, so encoders may use it freely inside
/// scopes.

#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "cnf/formula.h"
#include "cnf/literal.h"
#include "cnf/wcnf.h"
#include "sat/solver.h"

namespace msu {

/// Opaque, typed handle for an encoding scope. Wraps the scope's
/// activator literal; the explicit constructor and accessor make every
/// crossing between "scope" and "plain literal" a deliberate act the
/// compiler can police — passing a blocking/selector literal to
/// retireScope, or assuming a scope handle as if it were a bound
/// literal, no longer type-checks.
class ScopeHandle {
 public:
  constexpr ScopeHandle() = default;
  constexpr explicit ScopeHandle(Lit activator) : act_(activator) {}

  /// True iff the handle names a scope (default-constructed ones don't).
  [[nodiscard]] constexpr bool defined() const { return act_ != kUndefLit; }

  /// The guard literal: true exactly while the constraint is enforced.
  /// Needed when a scope's activator doubles as an assumption handle
  /// (AssumableAtMost) — every such escape is explicit at the call site.
  [[nodiscard]] constexpr Lit activator() const { return act_; }

  friend constexpr bool operator==(ScopeHandle, ScopeHandle) = default;

 private:
  Lit act_ = kUndefLit;
};

/// Destination for encoder output: fresh variables plus clauses, with
/// scope-based lifecycle management for retirable constraint groups.
class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  /// Creates a fresh variable (owned by the innermost open scope, where
  /// the sink supports ownership).
  virtual Var newVar() = 0;

  /// Creates a fresh variable the oracle need not branch on, like
  /// newVar otherwise. The caller promises that each clause mentioning
  /// it positively has no other positive literal over such variables:
  /// the sorter's clauses only lift inputs to outputs. Unassigned ones
  /// can then be set false once everything else is assigned and
  /// propagated, which satisfies those clauses. A solver sink built to
  /// leave them undecided creates a non-decision variable (see
  /// "Non-decision variables" in solver.h); other sinks an ordinary
  /// one.
  virtual Var newUpwardVar() { return newVar(); }

  /// Adds a clause over existing variables. Inside an open scope the
  /// scope's guard literal is appended automatically.
  void addClause(std::span<const Lit> lits) {
    if (scope_stack_.empty()) {
      emitClause(lits);
      return;
    }
    guard_buf_.assign(lits.begin(), lits.end());
    guard_buf_.push_back(~scope_stack_.back());
    emitClause(guard_buf_);
  }

  void addClause(std::initializer_list<Lit> lits) {
    addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// A literal constrained to be true (lazily created once per sink).
  /// Its complement serves as the constant false. Scope-independent:
  /// created unguarded and never owned by a scope.
  [[nodiscard]] Lit trueLit() {
    if (!true_lit_.defined()) {
      true_lit_ = posLit(newGlobalVar());
      const Lit unit = true_lit_;
      emitClause({&unit, 1});
    }
    return true_lit_;
  }

  /// A literal constrained to be false.
  [[nodiscard]] Lit falseLit() { return ~trueLit(); }

  // ---- Scopes ----------------------------------------------------------

  /// Opens a fresh encoding scope and returns its handle. The default
  /// (offline) implementation guards the scope's clauses with a fresh
  /// free variable; the exported constraint is enforced exactly when
  /// that activator is made true (see setScopeEnforced).
  [[nodiscard]] virtual ScopeHandle beginScope() {
    const Lit act = posLit(newGlobalVar());
    scope_stack_.push_back(act);
    return ScopeHandle(act);
  }

  /// Re-enters a live scope for additional emission (e.g. tightening a
  /// bound over an already-built network).
  virtual void reopenScope(ScopeHandle scope) {
    scope_stack_.push_back(scope.activator());
  }

  /// Closes the innermost scope; must match its handle.
  virtual void endScope(ScopeHandle scope) {
    assert(!scope_stack_.empty() && scope_stack_.back() == scope.activator());
    static_cast<void>(scope);
    scope_stack_.pop_back();
  }

  /// Discards the scope's constraint. Solver sinks delete its clauses
  /// physically and recycle its variables; the default is the logical
  /// fallback: permanently assert the negated activator (emitted raw,
  /// so it stays unconditional even while another scope is open).
  virtual void retireScope(ScopeHandle scope) {
    const Lit unit = ~scope.activator();
    emitClause({&unit, 1});
  }

  /// Chooses whether a live scope's constraint is active (enforced) or
  /// inert. Only meaningful for solver-backed sinks, where the solver
  /// assumes the activator (or its negation) on every solve. On offline
  /// formula sinks a scope is merely an activator-guarded clause group:
  /// the emitted formula enforces the constraint exactly when the
  /// activator holds, and the consumer decides that by asserting or
  /// assuming the activator literal itself.
  virtual void setScopeEnforced(ScopeHandle scope, bool enforced) {
    static_cast<void>(scope);
    static_cast<void>(enforced);
  }

  /// True iff a scope is currently open for emission.
  [[nodiscard]] bool inScope() const { return !scope_stack_.empty(); }

 protected:
  /// Raw clause emission (no guard handling).
  virtual void emitClause(std::span<const Lit> lits) = 0;

  /// Fresh variable outside any scope's ownership.
  virtual Var newGlobalVar() { return newVar(); }

  std::vector<Lit> scope_stack_;  ///< open scopes, innermost last

 private:
  Lit true_lit_ = kUndefLit;
  std::vector<Lit> guard_buf_;
};

/// Sink that feeds a CDCL solver; scopes map onto the solver's native
/// retirement machinery (Solver::newActivator / retire).
class SolverSink final : public ClauseSink {
 public:
  /// With `undecidedUpward`, newUpwardVar creates non-decision
  /// variables, which search never branches on; OracleSession asks for
  /// it on weighted input only.
  explicit SolverSink(Solver& solver, bool undecidedUpward = false)
      : solver_(&solver), undecided_upward_(undecidedUpward) {}

  using ClauseSink::addClause;

  Var newVar() override { return solver_->newVar(); }

  Var newUpwardVar() override {
    return solver_->newVar(/*decisionVar=*/!undecided_upward_);
  }

  [[nodiscard]] ScopeHandle beginScope() override {
    const Lit act = solver_->newActivator();
    solver_->openScope(act);
    scope_stack_.push_back(act);
    return ScopeHandle(act);
  }

  void reopenScope(ScopeHandle scope) override {
    solver_->openScope(scope.activator());
    scope_stack_.push_back(scope.activator());
  }

  void endScope(ScopeHandle scope) override {
    assert(!scope_stack_.empty() && scope_stack_.back() == scope.activator());
    scope_stack_.pop_back();
    solver_->closeScope(scope.activator());
  }

  void retireScope(ScopeHandle scope) override {
    solver_->retire(scope.activator());
  }

  void setScopeEnforced(ScopeHandle scope, bool enforced) override {
    solver_->setScopeEnforced(scope.activator(), enforced);
  }

 protected:
  void emitClause(std::span<const Lit> lits) override {
    // A conflicting addition flips the solver to "not okay"; encoders
    // need not observe it (subsequent solves report UNSAT).
    static_cast<void>(solver_->addClause(lits));
  }

  Var newGlobalVar() override {
    return solver_->newVar(/*decisionVar=*/true, /*scoped=*/false);
  }

 private:
  Solver* solver_;
  bool undecided_upward_;
};

/// Sink that appends to a CnfFormula.
class FormulaSink final : public ClauseSink {
 public:
  explicit FormulaSink(CnfFormula& cnf) : cnf_(&cnf) {}

  using ClauseSink::addClause;

  Var newVar() override { return cnf_->newVar(); }

 protected:
  void emitClause(std::span<const Lit> lits) override {
    cnf_->addClause(lits);
  }

 private:
  CnfFormula* cnf_;
};

/// Sink that appends hard clauses to a WcnfFormula.
class WcnfHardSink final : public ClauseSink {
 public:
  explicit WcnfHardSink(WcnfFormula& wcnf) : wcnf_(&wcnf) {}

  using ClauseSink::addClause;

  Var newVar() override { return wcnf_->newVar(); }

 protected:
  void emitClause(std::span<const Lit> lits) override { wcnf_->addHard(lits); }

 private:
  WcnfFormula* wcnf_;
};

}  // namespace msu
