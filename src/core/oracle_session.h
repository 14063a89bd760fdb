/// \file oracle_session.h
/// \brief The shared incremental-oracle layer under every SAT-based
///        MaxSAT engine: one object owning the CDCL solver, the scoped
///        clause sink, the (optional) soft-clause tracker and the
///        budget, so engines state their algorithm and nothing else.
///
/// Before this layer existed, each engine hand-rolled the same
/// lifecycle plumbing: construct a solver, wire the budget, load hard
/// clauses, attach selectors, track an `std::optional<Lit> activator`
/// plus an `activeBound` for its cardinality structure, unit-assert
/// stale activators to fake retirement, and copy the statistics out at
/// every exit point. The session centralises all of it on top of the
/// solver's native encoding-scope machinery (physical retirement +
/// variable recycling; see solver.h), mirroring the source paper's
/// philosophy of reusing learnt information across the iterations of a
/// core-guided search through one incremental oracle interface.
///
/// ## Prefix-stability contract (warm-started oracle calls)
///
/// With Solver::Options::reuse_trail the solver keeps its trail across
/// solve() boundaries and re-propagates only the suffix of the
/// assumption sequence that changed since the previous call (see
/// solver.h). The session keeps that reusable prefix maximal by
/// emitting assumptions in a *canonical stable order*, every call:
///
///  1. tracker assumptions first, in ascending selector-variable order
///     (SoftTracker::assumptions() enforces the order; relaxation only
///     *removes* elements, so the prefix up to the first newly relaxed
///     clause survives verbatim),
///  2. the caller's `extra` assumptions next (engines keep these
///     stable-ordered too — bound literals change only when the bound
///     moves),
///  3. live scope activators last, appended by the solver itself in
///     scope-creation order.
///
/// Engines must not reshuffle assumption sets between calls: a
/// permutation is semantically identical but destroys the common
/// prefix and with it the reuse. Retirement (retire/retireAll) and
/// inprocessing passes rewrite the clause database and invalidate the
/// saved prefix explicitly — the first solve after either starts from
/// the root, by design.
///
/// ## Reconstruction across retirement
///
/// Inprocessing may eliminate auxiliary variables, recording witnesses
/// for model reconstruction (the "reconstruction contract" in
/// solver.h). The session needs no
/// special handling: removal is forbidden on frozen selectors, scope
/// activators and scope-owned variables, so no witness ever references
/// a variable that retire() recycles — retirement and reconstruction
/// commute, models stay total over every variable the engine created,
/// and cores keep naming the selectors the tracker passed.

#pragma once

#include <cassert>
#include <chrono>
#include <optional>
#include <span>
#include <vector>

#include "core/core_trim.h"
#include "core/maxsat.h"
#include "core/soft_tracker.h"
#include "encodings/sink.h"

namespace msu {

/// One incremental-oracle session: solver + scoped sink + soft tracker
/// + budget + SAT-call accounting.
class OracleSession {
 public:
  /// `expansion`: the unit-weight copy of a weighted input
  /// (WcnfFormula::unitWeight) the engine runs on, if it made one. It
  /// lives as long as the session, so its bytes are charged to the
  /// memory cap on top of opts.sat.external_mem_bytes. And the sink
  /// then leaves the sorter's wires undecided (SolverSink): on the
  /// weighted suites that cuts msu4-v2's search, on the unweighted
  /// Table 1 suite it adds to it (bench/README.md, "Decision record:
  /// sorter wires are undecided on weighted input").
  explicit OracleSession(
      const MaxSatOptions& opts,
      const std::optional<WcnfFormula>& expansion = std::nullopt)
      : sat_(charged(opts.sat, expansion)),
        sink_(sat_, /*undecidedUpward=*/expansion.has_value()),
        progress_(opts.progress),
        trace_(opts.sat.trace) {
    sat_.setBudget(opts.budget);
    if (opts.metrics != nullptr) {
      solve_us_ = &opts.metrics->histogram(
          "msu_oracle_solve_us", "Latency of SAT oracle solve() calls");
    }
  }

  /// A dying session withdraws its memory contribution from the sink
  /// (mem_bytes is a gauge): engines that rebuild sessions mid-run must
  /// not leave stale bytes counted forever.
  ~OracleSession() {
    if (progress_ != nullptr) progress_->addMemBytes(-progress_mem_);
  }

  OracleSession(const OracleSession&) = delete;
  OracleSession& operator=(const OracleSession&) = delete;

  [[nodiscard]] Solver& sat() { return sat_; }
  [[nodiscard]] ClauseSink& sink() { return sink_; }
  [[nodiscard]] bool okay() const { return sat_.okay(); }

  // ---- Loading ---------------------------------------------------------

  /// Ensures the solver knows at least `n` variables.
  void ensureVars(int n) {
    while (sat_.numVars() < n) {
      static_cast<void>(sat_.newVar());
    }
  }

  /// Loads the hard clauses of `f` (creating its variables first).
  /// Runs under a bulk-load scope: watch construction is deferred to
  /// one counting pass over the whole batch instead of per-clause
  /// incremental growth.
  void addHards(const WcnfFormula& f) {
    ensureVars(f.numVars());
    const Solver::BulkLoadGuard bulk(sat_);
    for (const Clause& c : f.hard()) {
      static_cast<void>(sat_.addClause(c));
    }
  }

  /// Loads `f` through a SoftTracker (hards + selector-augmented softs).
  /// The tracker's assumptions are then included in every `solve()`.
  /// Bulk-loaded like addHards.
  SoftTracker& trackSofts(const WcnfFormula& f) {
    assert(!tracker_.has_value());
    const Solver::BulkLoadGuard bulk(sat_);
    tracker_.emplace(sat_, f);
    return *tracker_;
  }

  [[nodiscard]] bool hasTracker() const { return tracker_.has_value(); }
  [[nodiscard]] SoftTracker& tracker() { return *tracker_; }

  // ---- Scopes ----------------------------------------------------------

  [[nodiscard]] ScopeHandle beginScope() { return sink_.beginScope(); }
  void endScope(ScopeHandle scope) { sink_.endScope(scope); }
  void setEnforced(ScopeHandle scope, bool on) {
    sink_.setScopeEnforced(scope, on);
  }

  /// Retirement also schedules an inprocessing pass (Solver::retire).
  void retire(ScopeHandle scope) { sink_.retireScope(scope); }

  /// Batch retirement: one database sweep for many scopes.
  void retireAll(std::span<const ScopeHandle> scopes) {
    acts_buf_.clear();
    acts_buf_.reserve(scopes.size());
    for (const ScopeHandle sc : scopes) acts_buf_.push_back(sc.activator());
    sat_.retireAll(acts_buf_);
  }

  // ---- Solving ---------------------------------------------------------

  /// One oracle call: tracker assumptions (when attached) plus `extra`;
  /// live scope activators are appended by the solver itself.
  [[nodiscard]] lbool solve(std::span<const Lit> extra = {}) {
    ++sat_calls_;
    const auto t0 = solve_us_ != nullptr
                        ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
    lbool res;
    if (!tracker_) {
      res = sat_.solve(extra);
    } else {
      assumps_buf_ = tracker_->assumptions();
      assumps_buf_.insert(assumps_buf_.end(), extra.begin(), extra.end());
      res = sat_.solve(assumps_buf_);
    }
    if (solve_us_ != nullptr) {
      solve_us_->observe(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    syncProgress(1);
    return res;
  }

  [[nodiscard]] lbool solve(std::initializer_list<Lit> extra) {
    return solve(std::span<const Lit>(extra.begin(), extra.size()));
  }

  // ---- Core reduction --------------------------------------------------

  /// Fixpoint-trims a failing assumption set in at most `rounds`
  /// re-solves through this session's oracle (scope activators are
  /// auto-assumed by the solver as in any other session solve), charging
  /// the re-solves actually performed to satCalls() instead of a
  /// caller-side guess.
  [[nodiscard]] std::vector<Lit> trimCore(std::vector<Lit> core, int rounds) {
    obs::TraceSpan span(trace_, obs::TraceCat::kCore, "trim-core");
    const std::int64_t before = sat_.stats().solves;
    core = msu::trimCore(sat_, std::move(core), rounds);
    const std::int64_t calls = sat_.stats().solves - before;
    sat_calls_ += calls;
    syncProgress(calls);
    span.arg("lits", static_cast<std::int64_t>(core.size()));
    return core;
  }

  // ---- Result plumbing -------------------------------------------------

  [[nodiscard]] std::int64_t satCalls() const { return sat_calls_; }

  /// Copies the session's CDCL statistics and call count into a result.
  void exportStats(MaxSatResult& r) const {
    r.satStats = sat_.stats();
    r.satCalls = sat_calls_;
  }

 private:
  [[nodiscard]] static Solver::Options charged(
      Solver::Options o, const std::optional<WcnfFormula>& expansion) {
    if (expansion) o.external_mem_bytes += expansion->memBytesEstimate();
    return o;
  }

  /// Streams the deltas since the last sync into the live-progress
  /// sink (no-op without one). Deltas — not totals — so the multiple
  /// sessions of one job (portfolio workers) aggregate instead of
  /// clobbering each other; mem deltas may be negative (retirement,
  /// garbage collection) and keep each session's contribution honest.
  void syncProgress(std::int64_t calls) {
    if (progress_ == nullptr) return;
    const SolverStats& s = sat_.stats();
    progress_->addSatCalls(calls);
    progress_->addConflicts(s.conflicts - progress_conflicts_);
    progress_conflicts_ = s.conflicts;
    progress_->addMemBytes(s.mem_bytes - progress_mem_);
    progress_mem_ = s.mem_bytes;
  }

  Solver sat_;
  SolverSink sink_;
  obs::ProgressSink* progress_ = nullptr;
  obs::Tracer* trace_ = nullptr;
  obs::Histogram* solve_us_ = nullptr;
  std::int64_t progress_conflicts_ = 0;
  std::int64_t progress_mem_ = 0;
  std::optional<SoftTracker> tracker_;
  std::int64_t sat_calls_ = 0;
  std::vector<Lit> assumps_buf_;
  std::vector<Lit> acts_buf_;
};

}  // namespace msu
