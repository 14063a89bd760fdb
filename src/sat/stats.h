/// \file stats.h
/// \brief Counters reported by the CDCL engine; used by benchmarks and by
///        budget accounting.

#pragma once

#include <cstdint>

namespace msu {

/// The one authoritative list of SolverStats counters: forEachField
/// and operator+= are generated from it, so a new counter only has to
/// be added here plus its declaration below.
#define MSU_SOLVER_STATS_FIELDS(X) \
  X(solves)                        \
  X(decisions)                     \
  X(propagations)                  \
  X(conflicts)                     \
  X(restarts)                      \
  X(learnt_clauses)                \
  X(learnt_literals)               \
  X(minimized_literals)            \
  X(removed_clauses)               \
  X(gc_runs)                       \
  X(binary_propagations)           \
  X(long_propagations)             \
  X(blocker_hits)                  \
  X(watch_bytes_visited)           \
  X(retired_scopes)                \
  X(retired_clauses)               \
  X(reclaimed_bytes)               \
  X(recycled_vars)                 \
  X(inproc_passes)                 \
  X(inproc_removed_sat)            \
  X(inproc_subsumed)               \
  X(inproc_strengthened)           \
  X(inproc_lits_removed)           \
  X(inproc_bve_eliminated)         \
  X(inproc_bve_resolvents)         \
  X(inproc_bve_restored)           \
  X(reused_trail_lits)             \
  X(restarts_blocked)              \
  X(mode_switches)                 \
  X(mem_bytes)                     \
  X(mem_arena_bytes)               \
  X(mem_watch_bytes)               \
  X(mem_external_bytes)

/// Cumulative CDCL statistics. All counters are monotone over the
/// solver's lifetime except the `restart_mode` and `mem_*` gauges,
/// which track the solver's current state.
struct SolverStats {
  std::int64_t solves = 0;        ///< calls to solve()
  std::int64_t decisions = 0;     ///< branching decisions
  std::int64_t propagations = 0;  ///< literals propagated (trail pops)
  std::int64_t conflicts = 0;     ///< conflicts analysed
  std::int64_t restarts = 0;      ///< restarts performed
  std::int64_t learnt_clauses = 0;    ///< clauses learnt (total)
  std::int64_t learnt_literals = 0;   ///< literals in learnt clauses
  std::int64_t minimized_literals = 0;  ///< literals removed by minimization
  std::int64_t removed_clauses = 0;   ///< learnt clauses deleted by reduceDB
  std::int64_t gc_runs = 0;           ///< arena garbage collections

  // Propagation-core breakdown (flat watches + binary fast path).
  std::int64_t binary_propagations = 0;  ///< implications via binary watches
  std::int64_t long_propagations = 0;    ///< implications via long clauses
  std::int64_t blocker_hits = 0;         ///< watcher skipped via blocker lit
  std::int64_t watch_bytes_visited = 0;  ///< watcher-entry bytes scanned

  // Encoding-lifecycle accounting (Solver::retire).
  std::int64_t retired_scopes = 0;   ///< retire() calls that found a scope
  std::int64_t retired_clauses = 0;  ///< clauses deleted by retirement
  std::int64_t reclaimed_bytes = 0;  ///< clause-storage bytes freed by retire
  std::int64_t recycled_vars = 0;    ///< variables returned to the free list

  // In-solver inprocessing (Solver::Options::inprocess).
  std::int64_t inproc_passes = 0;       ///< inprocessing passes executed
  std::int64_t inproc_removed_sat = 0;  ///< top-level-satisfied clauses removed
  std::int64_t inproc_subsumed = 0;     ///< clauses deleted by subsumption
  std::int64_t inproc_strengthened = 0;  ///< clauses shortened by strengthening
  std::int64_t inproc_lits_removed = 0;  ///< literals removed by inprocessing

  // Bounded variable elimination (see elimination.cpp and the
  // reconstruction contract in solver.h).
  std::int64_t inproc_bve_eliminated = 0;  ///< variables eliminated by BVE
  std::int64_t inproc_bve_resolvents = 0;  ///< resolvent clauses added by BVE
  std::int64_t inproc_bve_restored = 0;   ///< eliminated vars restored on reuse

  // Warm-started oracle calls + adaptive restarts (Options::reuse_trail
  // / Options::ema_restarts). restart_mode is a gauge: 0 = Luby,
  // 1 = geometric, 2 = EMA focused phase, 3 = EMA stable phase.
  std::int64_t reused_trail_lits = 0;  ///< trail literals kept across solves
  std::int64_t restart_mode = 0;       ///< gauge: current restart policy
  std::int64_t restarts_blocked = 0;   ///< EMA restarts vetoed by trail depth
  std::int64_t mode_switches = 0;      ///< stable/focused phase flips

  // Cooperative memory accounting (Budget::setMaxMemory / SolveService
  // job caps). A gauge: the solver's current clause-storage footprint —
  // arena words, watch-table pools, per-variable state and bookkeeping
  // vectors — refreshed at budget poll sites and at solve() exit.
  // Summing across portfolio workers yields the combined footprint.
  std::int64_t mem_bytes = 0;  ///< gauge: accounted solver bytes

  // Breakdown gauges under mem_bytes (same refresh points): the clause
  // arena's backing store, the watch-table pools + header table, and
  // the bytes an owning layer charged to this solver via
  // Options::external_mem_bytes (parse buffers, formula storage).
  std::int64_t mem_arena_bytes = 0;     ///< gauge: clause-arena bytes
  std::int64_t mem_watch_bytes = 0;     ///< gauge: watch-table bytes
  std::int64_t mem_external_bytes = 0;  ///< gauge: externally charged bytes

  /// Invokes `f(name, value)` for every counter, in declaration order.
  /// Benches and tables build their field lists through this.
  template <typename F>
  void forEachField(F&& f) const {
#define MSU_STATS_VISIT(name) f(#name, name);
    MSU_SOLVER_STATS_FIELDS(MSU_STATS_VISIT)
#undef MSU_STATS_VISIT
    f("restart_mode", restart_mode);
  }

  /// Field-wise sum. The `mem_*` gauges are included on purpose —
  /// summing them across solvers yields the combined footprint — but
  /// `restart_mode` is a categorical gauge (a mode enum, not a
  /// quantity): merges keep the receiver's value, so a portfolio merge
  /// reports the decisive worker's mode.
  SolverStats& operator+=(const SolverStats& o) {
#define MSU_STATS_ADD(name) name += o.name;
    MSU_SOLVER_STATS_FIELDS(MSU_STATS_ADD)
#undef MSU_STATS_ADD
    return *this;
  }
};

}  // namespace msu
