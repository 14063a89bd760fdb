#include "harness/tables.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>

namespace msu {
namespace {

struct SolverAgg {
  int total = 0;
  int aborted = 0;
  int solved = 0;
  double totalSeconds = 0.0;
};

std::map<std::string, SolverAgg> aggregate(
    std::span<const RunRecord> records) {
  std::map<std::string, SolverAgg> by;
  for (const RunRecord& r : records) {
    SolverAgg& a = by[r.solver];
    ++a.total;
    a.totalSeconds += r.seconds;
    if (r.aborted) {
      ++a.aborted;
    } else {
      ++a.solved;
    }
  }
  return by;
}

}  // namespace

void printAbortedTable(std::ostream& out, std::span<const RunRecord> records,
                       std::span<const std::string> solverOrder,
                       const std::string& title) {
  const std::map<std::string, SolverAgg> by = aggregate(records);
  out << title << '\n';
  out << std::left << std::setw(14) << "solver" << std::right << std::setw(8)
      << "total" << std::setw(10) << "aborted" << std::setw(9) << "solved"
      << std::setw(12) << "mean t[s]" << '\n';
  for (const std::string& name : solverOrder) {
    const auto it = by.find(name);
    if (it == by.end()) continue;
    const SolverAgg& a = it->second;
    out << std::left << std::setw(14) << name << std::right << std::setw(8)
        << a.total << std::setw(10) << a.aborted << std::setw(9) << a.solved
        << std::setw(12) << std::fixed << std::setprecision(3)
        << (a.total > 0 ? a.totalSeconds / a.total : 0.0) << '\n';
  }
}

void printFamilyBreakdown(std::ostream& out,
                          std::span<const RunRecord> records,
                          std::span<const std::string> solverOrder) {
  std::set<std::string> families;
  for (const RunRecord& r : records) families.insert(r.family);

  out << "\nAborted instances by family:\n";
  out << std::left << std::setw(14) << "solver";
  for (const std::string& f : families) {
    out << std::right << std::setw(14) << f;
  }
  out << '\n';
  for (const std::string& name : solverOrder) {
    out << std::left << std::setw(14) << name;
    for (const std::string& f : families) {
      int aborted = 0;
      int total = 0;
      for (const RunRecord& r : records) {
        if (r.solver != name || r.family != f) continue;
        ++total;
        if (r.aborted) ++aborted;
      }
      std::string cell =
          std::to_string(aborted) + "/" + std::to_string(total);
      out << std::right << std::setw(14) << cell;
    }
    out << '\n';
  }
}

std::vector<ScatterPoint> makeScatter(std::span<const RunRecord> records,
                                      const std::string& xSolver,
                                      const std::string& ySolver) {
  std::map<std::string, const RunRecord*> xs;
  std::map<std::string, const RunRecord*> ys;
  for (const RunRecord& r : records) {
    if (r.solver == xSolver) xs[r.instance] = &r;
    if (r.solver == ySolver) ys[r.instance] = &r;
  }
  std::vector<ScatterPoint> points;
  for (const auto& [name, xr] : xs) {
    const auto it = ys.find(name);
    if (it == ys.end()) continue;
    ScatterPoint p;
    p.instance = name;
    p.family = xr->family;
    p.xSeconds = xr->seconds;
    p.ySeconds = it->second->seconds;
    p.xAborted = xr->aborted;
    p.yAborted = it->second->aborted;
    points.push_back(std::move(p));
  }
  return points;
}

void writeScatterCsv(std::ostream& out, std::span<const ScatterPoint> points,
                     const std::string& xName, const std::string& yName) {
  out << "instance,family," << xName << "_seconds," << yName << "_seconds,"
      << xName << "_aborted," << yName << "_aborted\n";
  for (const ScatterPoint& p : points) {
    out << p.instance << ',' << p.family << ',' << p.xSeconds << ','
        << p.ySeconds << ',' << (p.xAborted ? 1 : 0) << ','
        << (p.yAborted ? 1 : 0) << '\n';
  }
}

void printScatterSummary(std::ostream& out,
                         std::span<const ScatterPoint> points,
                         const std::string& xName, const std::string& yName) {
  int xWins = 0;
  int yWins = 0;
  int xAborted = 0;
  int yAborted = 0;
  int bothSolved = 0;
  double logRatioSum = 0.0;
  constexpr double kFloor = 1e-4;  // clamp for the geometric mean
  for (const ScatterPoint& p : points) {
    if (p.xAborted) ++xAborted;
    if (p.yAborted) ++yAborted;
    if (p.xAborted && !p.yAborted) ++yWins;
    if (!p.xAborted && p.yAborted) ++xWins;
    if (p.xAborted || p.yAborted) continue;
    ++bothSolved;
    if (p.xSeconds < p.ySeconds) {
      ++xWins;
    } else if (p.ySeconds < p.xSeconds) {
      ++yWins;
    }
    logRatioSum += std::log(std::max(p.ySeconds, kFloor) /
                            std::max(p.xSeconds, kFloor));
  }
  out << "scatter " << yName << " (y) vs " << xName << " (x): n="
      << points.size() << ", both-solved=" << bothSolved << '\n';
  out << "  " << xName << ": aborted=" << xAborted << ", faster-or-solved="
      << xWins << '\n';
  out << "  " << yName << ": aborted=" << yAborted << ", faster-or-solved="
      << yWins << '\n';
  if (bothSolved > 0) {
    out << "  geometric mean (" << yName << " time / " << xName
        << " time) over both-solved = " << std::fixed << std::setprecision(2)
        << std::exp(logRatioSum / bothSolved) << "x\n";
  }
}

namespace {

// One shared row formatter so every caller's labels and values stay in
// the same columns — the whole point of the unified block.
void printStatRow(std::ostream& out, const std::string& linePrefix,
                  const char* label, std::int64_t value) {
  out << linePrefix << "  " << std::left << std::setw(24) << label
      << std::right << std::setw(14) << value << '\n';
}

// Deliberately hand-formatted rather than driven by
// SolverStats::forEachField: the table groups and indents related rows
// (binary/long under propagations) and uses human labels. Shared by
// printSatStats and printRunStats so the label column stays aligned
// whichever entry point a driver uses.
void printSatStatsRows(std::ostream& out, const SolverStats& stats,
                       const std::string& linePrefix) {
  const auto row = [&out, &linePrefix](const char* label,
                                       std::int64_t value) {
    printStatRow(out, linePrefix, label, value);
  };
  row("solves", stats.solves);
  row("  reused trail lits", stats.reused_trail_lits);
  row("decisions", stats.decisions);
  row("conflicts", stats.conflicts);
  row("restarts", stats.restarts);
  row("  mode (0L/1G/2F/3S)", stats.restart_mode);
  row("  blocked", stats.restarts_blocked);
  row("  mode switches", stats.mode_switches);
  row("propagations", stats.propagations);
  row("  binary", stats.binary_propagations);
  row("  long", stats.long_propagations);
  row("blocker hits", stats.blocker_hits);
  row("watch bytes visited", stats.watch_bytes_visited);
  row("learnt clauses", stats.learnt_clauses);
  row("learnt literals", stats.learnt_literals);
  row("minimized literals", stats.minimized_literals);
  row("removed clauses", stats.removed_clauses);
  row("gc runs", stats.gc_runs);
  row("retired scopes", stats.retired_scopes);
  row("retired clauses", stats.retired_clauses);
  row("reclaimed bytes", stats.reclaimed_bytes);
  row("recycled vars", stats.recycled_vars);
  row("inproc passes", stats.inproc_passes);
  row("  satisfied removed", stats.inproc_removed_sat);
  row("  subsumed", stats.inproc_subsumed);
  row("  strengthened", stats.inproc_strengthened);
  row("  literals removed", stats.inproc_lits_removed);
  row("  bve eliminated", stats.inproc_bve_eliminated);
  row("  bve resolvents", stats.inproc_bve_resolvents);
  row("  bve restored", stats.inproc_bve_restored);
}

}  // namespace

void printSatStats(std::ostream& out, const SolverStats& stats,
                   const std::string& title,
                   const std::string& linePrefix) {
  out << linePrefix << title << '\n';
  printSatStatsRows(out, stats, linePrefix);
}

void printRunStats(std::ostream& out, const EngineRunCounters& engine,
                   const SolverStats& stats, const std::string& title,
                   const std::string& linePrefix) {
  out << linePrefix << title << '\n';
  printStatRow(out, linePrefix, "iterations", engine.iterations);
  printStatRow(out, linePrefix, "cores found", engine.cores);
  printStatRow(out, linePrefix, "sat calls", engine.satCalls);
  printSatStatsRows(out, stats, linePrefix);
}

void exportStatsToMetrics(obs::MetricsRegistry& registry,
                          const SolverStats& stats) {
  // The gauge-natured fields of SolverStats (see stats.h): everything
  // else is a monotone tally of work performed and maps to a counter.
  const auto isGauge = [](const std::string& name) {
    return name == "restart_mode" || name == "mem_bytes" ||
           name == "mem_arena_bytes" || name == "mem_watch_bytes" ||
           name == "mem_external_bytes";
  };
  stats.forEachField([&](const char* name, std::int64_t value) {
    const std::string n(name);
    if (isGauge(n)) {
      registry.gauge("msu_solver_" + n).set(value);
    } else {
      registry.counter("msu_solver_" + n + "_total").add(value);
    }
  });
}

}  // namespace msu
