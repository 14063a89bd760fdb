/// \file solver.h
/// \brief Incremental CDCL SAT solver with assumption-based unsatisfiable
///        core extraction — the substrate every MaxSAT engine in this
///        library is built on.
///
/// The skeleton follows MiniSat (Eén & Sörensson) — two-watched-literal
/// propagation, first-UIP conflict analysis with recursive clause
/// minimization, VSIDS with an indexed heap, phase saving, Luby
/// restarts, arena clause storage with copying GC — but the propagation
/// core is rebuilt around cache-conscious storage:
///
///  * **Flat watch lists.** All watchers live in contiguous pools
///    (WatchTable in watches.h) with ONE interleaved per-literal header
///    record carrying both the binary and the long head: one fewer
///    indirection per propagated literal, both propagation phases share
///    a header cache line, and GC relocation sweeps the pools linearly.
///    Segment growth relocates within the pool; the abandoned slack is
///    reclaimed by a compaction hooked into the arena-GC path.
///
///  * **Binary fast path.** Binary clauses never enter the clause
///    arena. A clause (a ∨ b) is two BinWatch entries storing the
///    implied literal inline (learnt flag packed into the spare low
///    bit), so binary propagation is a scan of a 4-byte-entry array
///    with zero clause dereferences. Reasons are a tagged 32-bit
///    `Reason` (arena CRef or inline "other literal"), and
///    `analyze`/`analyzeFinal`/`litRedundant` resolve binary reasons
///    without touching the arena.
///
///  * **Learnt database.** The classic MiniSat policy: each reduceDB
///    sorts the learnt arena clauses by activity and deletes the less
///    active half. Deletion detaches lazily: watchers of deleted
///    clauses are dropped as propagation or GC encounters them.
///
/// ## Encoding lifecycle (oracle sessions)
///
/// Incremental MaxSAT engines repeatedly emit cardinality structures
/// and later discard them. The solver supports this as a first-class
/// *scope* mechanism instead of the classic unit-asserted activator
/// hack:
///
///  * `newActivator()` hands out a guard literal `act` (recycling the
///    variable of a previously retired scope when possible).
///  * While a scope is open (`openScope`/`closeScope`), every clause
///    added is tagged with the activator in its arena header and every
///    variable created is owned by the scope. Callers (see
///    ClauseSink in encodings/sink.h) also append `~act` to each
///    emitted clause, so the constraint is enforced exactly when `act`
///    holds and every learnt descendant inherits `~act`.
///  * Every solve automatically assumes each live activator — `act`
///    when the scope is enforced, `~act` when disabled (call
///    `setScopeEnforced`). An explicit user assumption over the
///    activator variable overrides the automatic one. This invariant
///    is what makes physical deletion sound: scope clauses can never
///    leak consequences that outlive them, because their guard literal
///    is always decided before search starts.
///  * `retire(act)` physically deletes every clause guarded by the
///    activator — originals via the arena tag, learnt descendants via
///    the tag plus a literal scan, binaries via the activator's watch
///    lists — and returns the scope's auxiliary variables (and the
///    activator itself) to a free list for recycling by newVar(). The
///    arena space is reclaimed at the next GC; SolverStats records
///    retired clauses, reclaimed bytes and recycled variables.
///
/// Core extraction: solving under assumptions `a1..ak` that turn out to
/// be inconsistent yields, via final-conflict analysis, a subset of the
/// assumptions whose conjunction with the clause database is
/// unsatisfiable (`core()`). MaxSAT engines attach one selector literal
/// per tracked soft clause and read cores off that set, which is the
/// modern equivalent of the MiniSat 1.14 resolution-based core extractor
/// used in the paper. Cores may name auto-assumed activators; engines
/// map cores through selector tables and ignore the rest.
///
/// ## Learnt clauses stay in their solver
///
/// Learnt clauses are kept across one solver's incremental solves, as
/// the paper's msu4 keeps them between iterations, and never leave it.
/// The parallel portfolio (par/portfolio.h) races independent solvers
/// that exchange no clauses: importing them made it no faster
/// (bench/README.md, "portfolio workers exchange no clauses").
///
/// ## Non-decision variables
///
/// Search branches only on decision variables. A variable created with
/// `newVar(false)` is assigned by propagation or as an assumption, or
/// not at all: when every decision variable is assigned without
/// conflict, solve() reports SAT and sets each variable still
/// unassigned to false in `model()`. So a model is total, and it
/// satisfies the database as long as no irredundant clause has two
/// positive literals over non-decision variables: an unsatisfied
/// clause with two or more unassigned literals then holds a negative
/// one, which false satisfies. Who keeps to that:
///
///  * activators are assumed on every solve, and free (recycled)
///    variables occur in no live clause;
///  * the sorter's wires, when a SolverSink leaves them undecided
///    (ClauseSink::newUpwardVar in encodings/sink.h): each of its
///    clauses has one positive literal, a wire, and the engines name
///    wires only negatively, as bound units or assumptions.
///
/// Builds with asserts on check the rule on each clause added and
/// every SAT model against every irredundant clause.
///
/// ## Warm-started oracle calls (assumption-prefix trail reuse)
///
/// The MaxSAT engines drive one solver through thousands of solve calls
/// whose assumption sequences overlap almost entirely call-to-call
/// (soft-clause selectors in canonical variable order, scope
/// activators, bound literals). With Options::reuse_trail, solve() no
/// longer rewinds to decision level 0 between calls: the trail is kept
/// across the solve boundary, and the next call backtracks only to the
/// first position where its assumption sequence diverges from the
/// previous one — the shared prefix of assumption decisions and all
/// their propagations is reused verbatim (counted in
/// SolverStats::reused_trail_lits). Soundness rests on three rules:
///
///  * Levels 1..k are kept only when they correspond 1:1 to the first k
///    assumptions of *both* calls (search creates exactly one level per
///    assumption, in order, before any free decision), so core
///    extraction over kept levels still names assumptions only.
///  * addClause() accepts clauses over a non-empty trail: the clause is
///    simplified against the *root* (level-0) assignment only, and if
///    fewer than two of its literals are non-false under the current
///    assignment, the solver first backtracks to the deepest level at
///    which two are — restoring the two-watched-literal invariant that
///    no clause is unit or falsified without being processed. Unit
///    clauses always re-enter at level 0.
///  * Retirement (retire/retireAll) rewrites the clause database
///    wholesale; it invalidates the saved prefix explicitly by
///    cancelling to level 0 first.
///
/// With reuse_trail off, solve() ends with cancelUntil(0) and the
/// solver is bit-for-bit the non-reusing engine.
///
/// ## Adaptive restarts (EMA trajectory retune)
///
/// With Options::ema_restarts, restart pacing switches from the fixed
/// Luby/geometric schedule to a glucose-style adaptive trigger: fast
/// and slow exponential moving averages of learnt-clause LBD (see
/// RestartEma) fire a restart when the recent average exceeds a fixed
/// margin times the long-run average, and a trail-size EMA blocks
/// restarts while the assignment is unusually deep (the solver looks
/// close to a model). On top, the solver alternates CaDiCaL-style
/// between a *focused* mode (EMA restarts) and a *stable* mode
/// (Luby-paced long restarts) on a doubling conflict interval, and
/// entering stable mode rephases saved polarities to the best (deepest)
/// trail seen since the last focused phase. Off by default; the
/// restart_mode/restarts_blocked/mode_switches counters expose the
/// trajectory.

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cnf/literal.h"
#include "obs/trace.h"
#include "sat/arena.h"
#include "sat/budget.h"
#include "sat/fault.h"
#include "sat/heap.h"
#include "sat/proof_tracer.h"
#include "sat/stats.h"
#include "sat/watches.h"

namespace msu {

/// Exponential moving average seeded by its first sample (no bias
/// correction needed: the first update assigns, later ones blend).
struct Ema {
  double value = 0.0;
  std::int64_t samples = 0;

  void update(double x, double alpha) {
    ++samples;
    if (samples == 1) {
      value = x;
    } else {
      value += alpha * (x - value);
    }
  }
};

/// Glucose-style adaptive-restart trigger: a fast and a slow EMA of the
/// learnt-clause LBD stream. The fast average tracks the current burst,
/// the slow one the long-run trajectory; when the burst is `margin`
/// times worse than the trajectory, the search has wandered into a bad
/// region and a restart is due. block() caps the fast average back to
/// the slow one — the trail-size heuristic calls it when the assignment
/// is unusually deep (the solver looks close to a model), postponing
/// restarts until the fast average climbs anew.
struct RestartEma {
  static constexpr double kFastAlpha = 1.0 / 32.0;
  static constexpr double kSlowAlpha = 1.0 / 8192.0;
  Ema fast;
  Ema slow;

  void update(double lbd) {
    fast.update(lbd, kFastAlpha);
    slow.update(lbd, kSlowAlpha);
  }

  [[nodiscard]] bool shouldRestart(double margin) const {
    return slow.samples > 0 && fast.value > margin * slow.value;
  }

  void block() {
    if (fast.value > slow.value) fast.value = slow.value;
  }
};

/// Incremental CDCL solver.
class Solver {
 public:
  /// Tunable parameters; defaults match MiniSat's.
  struct Options {
    double var_decay = 0.95;       ///< VSIDS activity decay
    int restart_base = 100;        ///< conflicts per Luby unit
    bool luby_restarts = true;     ///< Luby vs. geometric (x2) restarts
    bool phase_saving = true;      ///< reuse last assigned polarity
    int ccmin_mode = 2;            ///< 0=off, 1=basic, 2=recursive
    double learntsize_factor = 1.0 / 3.0;  ///< initial learnt DB size
    double learntsize_inc = 1.1;   ///< learnt DB growth per restart
    double garbage_frac = 0.20;    ///< GC when wasted/size exceeds this

    /// Warm-started oracle calls: keep the trail across solve()
    /// boundaries and backtrack only to the first divergence between
    /// the previous and the next assumption sequence (see the file
    /// comment). On by default — the incremental MaxSAT engines are the
    /// library's workload and the reused prefix is pure savings there;
    /// off restores the cancelUntil(0)-per-solve engine bit-for-bit.
    bool reuse_trail = true;

    /// Adaptive EMA restarts + stable/focused mode switching + best-
    /// phase rephasing instead of the fixed Luby/geometric schedule
    /// (see the file comment). Off by default: on the recorded engine
    /// suite the adaptive trajectory is a sidegrade (decision record in
    /// bench/README.md); the portfolio diversifies workers across both
    /// modes.
    bool ema_restarts = false;
    /// Conflicts until the first stable/focused mode switch; the
    /// interval doubles at every switch, so late phases are long.
    std::int64_t mode_switch_conflicts = 1000;

    /// Optional proof receiver (non-owning; must outlive the solver).
    /// Attach before adding clauses so the axiom trace is complete.
    ProofTracer* tracer = nullptr;

    /// Optional fault injector (non-owning; must outlive the solver).
    /// Off (nullptr) by default — the hooks then cost a pointer test.
    /// When attached, the injector can force budget expiry at the Nth
    /// poll, simulate arena allocation failure (the solver aborts the
    /// solve with AbortReason::kMemory exactly as if its cooperative
    /// memory cap tripped) and make the Nth solve() return Undef.
    /// See sat/fault.h; used by the SolveService stress suite.
    FaultInjector* fault = nullptr;

    /// Optional execution tracer (non-owning; must outlive the solver).
    /// When set and enabled, the solver emits spans for solve() calls
    /// and restart segments into the per-thread rings
    /// (obs/trace.h). Off (nullptr) by default — every instrumented
    /// seam then costs one pointer test and search behaviour is
    /// bit-for-bit identical (tracing is purely observational; see
    /// tests/obs_test.cpp gating test).
    obs::Tracer* trace = nullptr;

    /// Bytes of caller-owned storage charged to this solver's memory
    /// footprint (the parsed formula, parse buffers): counted into
    /// memBytesEstimate() so Budget::setMaxMemory caps the *end-to-end*
    /// ingest-to-solve footprint, not just the clause database. The
    /// job layer sets it from WcnfFormula::memBytesEstimate(); engines
    /// that fan one formula out to several solvers (the portfolio)
    /// charge it to each worker — deliberately conservative.
    std::int64_t external_mem_bytes = 0;

    /// Abort with the offending scope id when a clause references a
    /// variable of a live scope that is neither open for emission nor
    /// older than the emitting scope (the misuse retire()'s literal
    /// scan would otherwise mask as a silent deletion). References to
    /// *older* scopes are legitimate layering — OLL counts the outputs
    /// of earlier totalizers — provided the older scope outlives the
    /// referencing one. Off by default in release builds; tests enable
    /// it explicitly.
#ifdef NDEBUG
    bool check_cross_scope = false;
#else
    bool check_cross_scope = true;
#endif
  };

  Solver() : Solver(Options{}) {}
  explicit Solver(const Options& opts);

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ---- Problem construction -------------------------------------------

  /// Creates a variable and returns it, recycling one retired with a
  /// scope when available. While a scope is open the variable is owned
  /// by it (recycled at retire) unless `scoped` is false. Search never
  /// branches on a variable created with `decisionVar` false; see
  /// "Non-decision variables" in the file comment for what its
  /// clauses must keep to.
  Var newVar(bool decisionVar = true, bool scoped = true);

  /// Number of variable slots created (recycled or not).
  [[nodiscard]] int numVars() const {
    return static_cast<int>(assigns_.size());
  }

  /// Number of original (problem) clauses currently attached, binary
  /// clauses included.
  [[nodiscard]] int numClauses() const {
    return static_cast<int>(clauses_.size()) + num_bin_orig_;
  }

  /// Number of learnt clauses currently attached, binary ones included.
  [[nodiscard]] int numLearnts() const {
    return static_cast<int>(learnts_.size()) + num_bin_learnt_;
  }

  /// Adds a clause. Returns false iff the clause database is now known
  /// unsatisfiable at level 0 (the solver becomes permanently "not okay").
  /// All referenced variables must have been created with newVar().
  /// While a scope is open the clause is tagged with its activator
  /// (callers append the guard literal; see ClauseSink).
  ///
  /// With Options::reuse_trail the call is legal over a warm (non-root)
  /// trail: the clause is simplified against the level-0 assignment
  /// only and, when necessary, the solver backtracks just far enough
  /// that two of its literals are non-false before attaching (see the
  /// file comment); unit clauses re-enter at level 0. Without
  /// reuse_trail the historical contract holds: decision level 0 only.
  bool addClause(std::span<const Lit> lits);
  bool addClause(std::initializer_list<Lit> lits) {
    return addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// False iff unsatisfiability was already established at level 0.
  [[nodiscard]] bool okay() const { return ok_; }

  /// The options this solver was constructed with (read-only).
  [[nodiscard]] const Options& options() const { return opts_; }

  // ---- Bulk clause loading (huge-instance ingest) ----------------------
  //
  // The only path OracleSession and fastLoadDimacsCnfInto load through.
  //
  // Contract: between beginBulkLoad() and endBulkLoad(), addClause()
  // keeps its root-level simplification semantics exactly (tautology
  // and satisfied-clause dropping, false-literal stripping, duplicate
  // collapse, unit enqueue, empty clause => not okay) but defers all
  // watcher construction: binaries and long clauses are parked, and
  // unit propagation does not run after each unit. endBulkLoad() then
  // sizes every watch list in one counting pass (no segment ever
  // relocates), attaches the parked clauses in insertion order — so
  // per-literal watcher order is identical to per-clause loading — and
  // runs a single propagate() over everything the load enqueued.
  //
  // Equivalence: when the loaded clauses imply no root units, the
  // resulting solver is bit-for-bit identical to per-clause loading
  // (same watcher order, same stats); with units, the clause database
  // may differ textually (per-clause loading simplifies later clauses
  // against units derived from earlier ones; bulk loading sees those
  // only at endBulkLoad) but is logically equivalent — solve results
  // match (gated by tests/bulkload_test.cpp).
  //
  // Calls nest (depth-counted); only the outermost pair does work.
  // Entering bulk mode cancels a warm trail to level 0; solve() and
  // retirement must not run while a bulk load is open (asserted).
  //
  // 32-bit arena-ref cap: clause storage lives in one flat arena
  // addressed by 31-bit word offsets (Reason packs a tag bit), so the
  // total clause database is capped at 2^31 words = 8 GiB. The load
  // path checks the cap per clause and fails *cooperatively*: the
  // solver stops storing clauses, prints one clear diagnostic, and the
  // next budget poll (or solve() entry) aborts with
  // AbortReason::kMemory — the structured out-of-memory path, not a
  // crash. Search-time allocations keep the arena's hard abort as a
  // backstop.

  /// Enters bulk-load mode (see the contract above).
  void beginBulkLoad();

  /// Leaves bulk-load mode; at the outermost level builds the watch
  /// lists and propagates the loaded units. Returns okay().
  bool endBulkLoad();

  /// RAII wrapper: begin on construction, end on destruction.
  class BulkLoadGuard {
   public:
    explicit BulkLoadGuard(Solver& solver) : solver_(solver) {
      solver_.beginBulkLoad();
    }
    ~BulkLoadGuard() { static_cast<void>(solver_.endBulkLoad()); }
    BulkLoadGuard(const BulkLoadGuard&) = delete;
    BulkLoadGuard& operator=(const BulkLoadGuard&) = delete;

   private:
    Solver& solver_;
  };

  // ---- Encoding lifecycle (see the file comment) -----------------------

  /// Creates a fresh activator literal for a new encoding scope. The
  /// variable is non-decision and starts enforced (auto-assumed true).
  [[nodiscard]] Lit newActivator();

  /// Directs subsequent newVar()/addClause() ownership to `activator`'s
  /// scope. Scopes nest; close in LIFO order.
  void openScope(Lit activator);
  void closeScope(Lit activator);

  /// Chooses the automatic assumption polarity of a live scope:
  /// enforced scopes assume the activator (constraint active), disabled
  /// scopes assume its negation (constraint inert, clauses satisfied).
  void setScopeEnforced(Lit activator, bool enforced);

  /// True iff `activator` names a scope that has not been retired.
  [[nodiscard]] bool isLiveScope(Lit activator) const;

  /// Number of live (unretired) scopes.
  [[nodiscard]] int numLiveScopes() const {
    return static_cast<int>(scopes_.size());
  }

  /// Physically deletes every clause of the scope (originals, learnt
  /// descendants and binaries) and recycles its variables. Must be
  /// called outside search with the scope closed; a warm reused trail
  /// (Options::reuse_trail) is explicitly invalidated — retirement
  /// cancels to level 0 before sweeping. The freed arena words are
  /// reclaimed at the next GC.
  void retire(Lit activator) { retireAll({&activator, 1}); }

  /// Batch retirement: one database sweep for many scopes.
  void retireAll(std::span<const Lit> activators);

  // ---- Solving ---------------------------------------------------------

  /// Solves without assumptions. True/False for SAT/UNSAT; Undef when the
  /// budget was exhausted.
  [[nodiscard]] lbool solve() { return solve({}); }

  /// Solves under assumptions.
  ///  * True: `model()` holds a complete satisfying assignment; the
  ///    non-decision variables search left unassigned read false.
  ///  * False: if caused by the assumptions, `core()` holds a subset of
  ///    them that is jointly inconsistent with the clause database
  ///    (possibly empty when the database itself is unsatisfiable).
  ///  * Undef: budget exhausted.
  /// Live scope activators are assumed automatically unless the caller
  /// assumes their variable explicitly.
  [[nodiscard]] lbool solve(std::span<const Lit> assumptions);

  /// Model from the last satisfiable solve (indexed by variable).
  [[nodiscard]] const std::vector<lbool>& model() const { return model_; }

  /// Value of `p` in the stored model.
  [[nodiscard]] lbool modelValue(Lit p) const {
    return applySign(model_[p.var()], p);
  }

  /// Failing assumption subset from the last unsatisfiable solve-under-
  /// assumptions (in the polarity the caller passed them). May include
  /// auto-assumed scope activators.
  [[nodiscard]] const std::vector<Lit>& core() const { return core_; }

  // ---- Budgets & statistics ---------------------------------------------

  /// Installs a cooperative budget (shared across subsequent solves).
  void setBudget(const Budget& b) { budget_ = b; }

  /// The currently installed budget.
  [[nodiscard]] const Budget& budget() const { return budget_; }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// Cooperative memory accounting: the solver's current clause-storage
  /// footprint in bytes — arena capacity, watch-table pools, per-
  /// variable state and the trail/clause-list bookkeeping. This is the
  /// quantity compared against Budget::setMaxMemory at the budget poll
  /// sites and surfaced as the SolverStats::mem_bytes gauge. It tracks
  /// the structures that actually grow with the clause database; small
  /// fixed-size scratch is deliberately ignored.
  [[nodiscard]] std::int64_t memBytesEstimate() const;

  /// Installs (or clears, with nullptr) the proof tracer. Attach before
  /// the first addClause so the proof's axiom record is complete.
  void setProofTracer(ProofTracer* tracer) { opts_.tracer = tracer; }

  /// The installed proof tracer, if any.
  [[nodiscard]] ProofTracer* proofTracer() const { return opts_.tracer; }

  // ---- Introspection (used by tests) ------------------------------------

  /// Current value of a variable at the solver's present state.
  [[nodiscard]] lbool value(Var v) const { return assigns_[v]; }

  /// Current value of a literal.
  [[nodiscard]] lbool value(Lit p) const {
    return applySign(assigns_[p.var()], p);
  }

  /// Number of level-0 assigned literals (after simplification).
  [[nodiscard]] int numFixedVars() const;

  /// Variables currently available for recycling.
  [[nodiscard]] int numFreeVars() const {
    return static_cast<int>(free_vars_.size());
  }

 private:
  struct VarData {
    Reason reason = Reason::none();
    int level = 0;
  };

  /// Bookkeeping of one live encoding scope.
  struct ScopeRec {
    std::vector<Var> vars;    ///< auxiliary variables owned by the scope
    std::uint64_t birth = 0;  ///< creation order (cross-scope checker)
    bool enforced = true;     ///< auto-assume activator vs. its negation
  };

  // Construction helpers. There is no eager detach: removeClause()
  // marks the clause deleted and its watchers are dropped lazily by
  // propagate() and the GC sweep.
  void attachClause(CRef ref);
  void attachBinary(Lit a, Lit b, bool learnt);
  void removeClause(CRef ref);

  // Search machinery.
  [[nodiscard]] int decisionLevel() const {
    return static_cast<int>(trail_lim_.size());
  }
  void newDecisionLevel() { trail_lim_.push_back(trailSize()); }
  [[nodiscard]] int trailSize() const {
    return static_cast<int>(trail_.size());
  }
  /// Assigns `p` at the current level. Forced inline: propagate() calls
  /// it at every implication, and GCC leaves the long-clause site out
  /// of line otherwise.
  [[gnu::always_inline]] void uncheckedEnqueue(Lit p,
                                               Reason from = Reason::none()) {
    assert(value(p) == lbool::Undef);
    assigns_[p.var()] = toLbool(p.positive());
    vardata_[p.var()] = VarData{from, decisionLevel()};
    trail_.push_back(p);
  }
  [[nodiscard]] Reason propagate();
  void cancelUntil(int level);
  [[nodiscard]] Lit pickBranchLit();
  void analyze(Reason confl, std::vector<Lit>& outLearnt, int& outBtLevel);
  [[nodiscard]] bool litRedundant(Lit p, std::uint32_t abstractLevels);
  void analyzeFinal(Lit p, std::vector<Lit>& outConflict);
  [[nodiscard]] lbool search(std::int64_t conflictsBeforeRestart);
  void recordLearnt(std::span<const Lit> learntClause);
  void reduceDB();
  [[nodiscard]] std::uint32_t computeLbd(std::span<const Lit> lits);
  void removeSatisfied(std::vector<CRef>& refs);
  void removeSatisfiedBinaries();
  bool simplify();
  void rebuildOrderHeap();
  void garbageCollectIfNeeded();
  void relocAll(ClauseArena& to);

  // Warm-start / adaptive-restart helpers.
  /// Root-level value of `p`: its assignment when fixed at level 0,
  /// Undef otherwise. Equal to value(p) whenever the trail is at level
  /// 0, which keeps the cold addClause path byte-identical.
  [[nodiscard]] lbool rootValue(Lit p) const {
    return (assigns_[p.var()] != lbool::Undef && level(p.var()) == 0)
               ? value(p)
               : lbool::Undef;
  }
  void prepareWarmAttach(std::vector<Lit>& ps);
  void maybeSwitchMode();
  void captureBestPhase();
  [[nodiscard]] std::int64_t restartModeGauge() const {
    if (!opts_.ema_restarts) return opts_.luby_restarts ? 0 : 1;
    return stable_mode_ ? 3 : 2;
  }

  // Lifecycle helpers.
  [[nodiscard]] Var currentScopeTag() const {
    return scope_stack_.empty() ? kUndefVar : scope_stack_.back();
  }
  [[nodiscard]] Var learntTagFor(std::span<const Lit> lits) const;
  void appendScopeAssumptions(std::span<const Lit> userAssumptions);
  void recycleVar(Var v);
  void checkCrossScopeRefs(std::span<const Lit> lits) const;

  /// True iff model_ satisfies every irredundant clause (the asserted
  /// check on each SAT answer; see "Non-decision variables").
  [[nodiscard]] bool modelSatisfiesDatabase() const;
  /// Positive literals of `ps` over non-decision variables: at most one
  /// in an irredundant clause ("Non-decision variables").
  [[nodiscard]] int nonDecisionPositives(std::span<const Lit> ps) const;

  [[nodiscard]] bool locked(CRef ref) const;
  [[nodiscard]] int level(Var v) const { return vardata_[v].level; }
  [[nodiscard]] Reason reason(Var v) const { return vardata_[v].reason; }

  void varBumpActivity(Var v);
  void varDecayActivity() { var_inc_ /= opts_.var_decay; }
  void claBumpActivity(ClauseRefView c);
  void claDecayActivity() { cla_inc_ /= kClauseDecay; }

  [[nodiscard]] bool withinBudget() const;

  /// The amortized budget poll shared by solve()'s entry, its restart
  /// loop and search()'s conflict check: fault-injected expiry, the
  /// interrupt flag / wall clock, a simulated allocation failure and
  /// the cooperative memory cap (byte accounting runs only when a cap
  /// is set). Returns true iff the solve must unwind with Undef.
  [[nodiscard]] bool pollAborted();

  /// Refreshes the SolverStats memory gauges (mem_bytes + the arena/
  /// watch/external breakdown) from the live structures.
  void refreshMemStats();

  /// Amortized load-time memory check (every kLoadMemCheckPeriod
  /// addClause calls, only when a cap is set): trips load_failed_ so
  /// the next poll aborts with kMemory instead of overcommitting.
  void maybeCheckLoadMem();

  /// Cooperative 31-bit arena-ref overflow failure on the load path:
  /// one diagnostic, then load_failed_ (see the bulk-load contract).
  void failLoadArenaOverflow(std::size_t clauseLits);

  /// Attaches everything parked by bulk-mode addClause: one counting
  /// pass sizes the watch lists exactly, then binaries and longs
  /// attach in insertion order.
  void bulkAttachAll();

  /// Fault-injection hook at arena-allocation sites: flips
  /// alloc_failed_ when the injector says this allocation "fails".
  void noteAllocFault() {
    if (opts_.fault != nullptr && opts_.fault->onAlloc()) {
      alloc_failed_ = true;
    }
  }

  // Proof trace helpers (no-ops without a tracer).
  void traceAxiom(std::span<const Lit> lits) {
    if (opts_.tracer != nullptr) opts_.tracer->axiom(lits);
  }
  void traceLemma(std::span<const Lit> lits) {
    if (opts_.tracer != nullptr) opts_.tracer->lemma(lits);
  }
  void traceDeleted(std::span<const Lit> lits) {
    if (opts_.tracer != nullptr) opts_.tracer->deleted(lits);
  }

  Options opts_;

  // Clause storage and lists (binary clauses live only in the watch
  // table's binary pool).
  ClauseArena arena_;
  std::vector<CRef> clauses_;
  std::vector<CRef> learnts_;
  int num_bin_orig_ = 0;
  int num_bin_learnt_ = 0;

  // Watches: binary + long pools behind one interleaved header table,
  // indexed by Lit::index() of the falsified watch.
  WatchTable watches_;

  // Per-variable state.
  std::vector<lbool> assigns_;
  std::vector<VarData> vardata_;
  std::vector<char> polarity_;  // saved phase: 1 = last value was false
  std::vector<char> decision_;  // eligible as decision variable
  std::vector<double> activity_;
  std::vector<char> seen_;

  // Encoding-lifecycle state. scope_index_ maps an activator variable
  // to its slot in scopes_ (-1 otherwise), so ownership attribution,
  // enforcement flips and retirement are O(1) per scope even when
  // thousands of scopes are live (msu1 keeps one per soft clause).
  std::vector<char> is_activator_;     // per var: 1 = live scope guard
  std::vector<int> scope_index_;       // per var: slot in scopes_ or -1
  std::vector<Var> var_owner_;         // per var: owning activator or undef
  std::vector<Var> scope_stack_;       // open scopes, innermost last
  std::vector<Var> free_vars_;         // recycled variable pool
  std::vector<std::pair<Var, ScopeRec>> scopes_;  // live scopes
  std::uint64_t scope_births_ = 0;           // scopes ever created
  std::vector<std::uint32_t> assump_stamp_;  // per var: last-solve marker
  std::uint32_t assump_epoch_ = 0;

  // Trail.
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  int qhead_ = 0;

  // Heuristics.
  VarOrderHeap order_heap_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  static constexpr double kClauseDecay = 0.999;  // learnt activity decay

  // Assumption interface.
  std::vector<Lit> assumptions_;
  std::vector<Lit> core_;
  std::vector<lbool> model_;

  // Warm-start state: the previous solve's full assumption sequence
  // (user assumptions + auto-appended scope activators). While the
  // trail is warm, kept level i corresponds to prev_assumptions_[i-1].
  std::vector<Lit> prev_assumptions_;

  // Adaptive-restart state (Options::ema_restarts).
  RestartEma restart_ema_;
  Ema trail_ema_;                      // trail size at conflicts
  bool stable_mode_ = false;           // stable vs. focused phase
  std::int64_t mode_interval_ = 0;     // 0 = switching not initialised
  std::int64_t next_mode_switch_ = 0;  // stats_.conflicts threshold
  int stable_luby_idx_ = 0;            // Luby index of stable restarts
  std::vector<char> best_phase_;       // polarity of the deepest trail
  int best_trail_ = 0;                 // deepest trail this focused phase

  // Analyze scratch (reserved once per solve, reused across conflicts).
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> analyze_stack_;
  std::vector<int> lbd_scratch_;
  std::vector<Lit> learnt_scratch_;
  std::array<Lit, 2> bin_confl_{};  // literals of a binary conflict

  // State.
  bool ok_ = true;
  double max_learnts_ = 0.0;
  int simp_db_assigns_ = -1;  // trail size at last simplify()
  // Sticky simulated-OOM marker (fault injection): once an arena
  // allocation "failed", every later poll aborts with kMemory — the
  // condition does not clear, mirroring a real memory wall. The job
  // layer discards the solver; the object itself stays consistent.
  bool alloc_failed_ = false;

  // Bulk-load state (beginBulkLoad/endBulkLoad). While bulk_depth_ > 0
  // addClause parks attachments here instead of touching the watch
  // lists; endBulkLoad drains both vectors in insertion order after one
  // exact counting pass. load_failed_ is the cooperative load-time
  // failure latch (memory cap exceeded or arena-ref overflow): the
  // solver stays ok_ == true so engines don't misreport hard-UNSAT,
  // and the next pollAborted() surfaces AbortReason::kMemory.
  int bulk_depth_ = 0;
  std::vector<std::pair<Lit, Lit>> bulk_bins_;  // deferred binary watches
  std::vector<CRef> bulk_longs_;                // deferred long watches
  std::vector<Lit> add_tmp_;  // addClause scratch (no per-call alloc)
  bool load_failed_ = false;
  int load_mem_countdown_ = 0;  // adds until the next cap check
  static constexpr int kLoadMemCheckPeriod = 1024;

  Budget budget_;
  SolverStats stats_;
};

/// The Luby sequence scaled by `y`: y * luby(i); used for restart pacing.
[[nodiscard]] double lubySequence(double y, int i);

}  // namespace msu
