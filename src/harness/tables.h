/// \file tables.h
/// \brief Formats run records into the paper's artifacts: the
///        aborted-instances tables (Tables 1 & 2) and the scatter-plot
///        series (Figures 1-3, emitted as CSV plus a textual summary).

#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "obs/metrics.h"
#include "sat/stats.h"

namespace msu {

/// Prints a Table-1-style summary: per solver, the number of instances
/// aborted within the budget (plus solved counts and mean runtime).
void printAbortedTable(std::ostream& out, std::span<const RunRecord> records,
                       std::span<const std::string> solverOrder,
                       const std::string& title);

/// Per-family breakdown of aborted counts (extension of Table 1).
void printFamilyBreakdown(std::ostream& out,
                          std::span<const RunRecord> records,
                          std::span<const std::string> solverOrder);

/// One scatter point: runtimes of two solvers on the same instance.
struct ScatterPoint {
  std::string instance;
  std::string family;
  double xSeconds = 0.0;  ///< solver on the x axis (msu4-v2 in the paper)
  double ySeconds = 0.0;
  bool xAborted = false;
  bool yAborted = false;
};

/// Pairs up records of two solvers by instance.
[[nodiscard]] std::vector<ScatterPoint> makeScatter(
    std::span<const RunRecord> records, const std::string& xSolver,
    const std::string& ySolver);

/// Emits "instance,family,x_seconds,y_seconds,x_aborted,y_aborted" CSV.
void writeScatterCsv(std::ostream& out, std::span<const ScatterPoint> points,
                     const std::string& xName, const std::string& yName);

/// Prints a textual summary of a scatter: win counts, aborted counts and
/// the geometric-mean runtime ratio over commonly-solved instances.
void printScatterSummary(std::ostream& out,
                         std::span<const ScatterPoint> points,
                         const std::string& xName, const std::string& yName);

/// Prints the CDCL substrate counters (search totals including the
/// warm-start trail reuse and restart-trajectory rows, the propagation
/// breakdown from the flat-watch/binary-fast-path core, the learnt
/// database, the encoding-lifecycle accounting — retired
/// scopes/clauses, reclaimed bytes, recycled variables — and the
/// inprocessing accounting) as a labelled two-column table. Every
/// line starts with `linePrefix` (e.g. "c " to keep DIMACS-style
/// solver output machine-skippable).
void printSatStats(std::ostream& out, const SolverStats& stats,
                   const std::string& title,
                   const std::string& linePrefix = "");

/// Engine-level counters of one MaxSAT run (the driver-visible slice of
/// MaxSatResult), so drivers need not depend on core/maxsat.h here.
struct EngineRunCounters {
  std::int64_t iterations = 0;  ///< main-loop iterations
  std::int64_t cores = 0;       ///< unsatisfiable cores extracted
  std::int64_t satCalls = 0;    ///< SAT oracle invocations
};

/// Prints engine-level and CDCL counters as ONE aligned block (shared
/// label column), replacing the historical split into an ad-hoc engine
/// section plus a separate substrate table: engine rows first, then
/// every printSatStats row, all under a single title.
void printRunStats(std::ostream& out, const EngineRunCounters& engine,
                   const SolverStats& stats, const std::string& title,
                   const std::string& linePrefix = "");

/// Mirrors a SolverStats block into `registry` as `msu_solver_<field>`
/// metrics — driven by the same MSU_SOLVER_STATS_FIELDS X-macro that
/// printSatStats renders, so the two dump paths can never diverge.
/// Search-work fields accumulate into `_total` counters; the gauge
/// fields (`restart_mode`, `mem_*`) overwrite gauges instead. Call
/// once per finished run (the SolveService does, per job).
void exportStatsToMetrics(obs::MetricsRegistry& registry,
                          const SolverStats& stats);

}  // namespace msu
