/// \file maxsat_cli.cpp
/// \brief A command-line MaxSAT solver over the library — the tool a
///        downstream user would actually run. Reads DIMACS CNF/WCNF from
///        a file (or stdin), solves with a selectable engine, and prints
///        MaxSAT-evaluation-style output (o/s/v lines).
///
/// Usage:
///   maxsat_cli [options] [file.wcnf|file.cnf|-]
///     --algo NAME       engine (default msu4-v2): the paper's maxsatz,
///                       pbo, msu4-v1 and msu4-v2, or any other name
///                       from --list (msu1, linear, oll, ...)
///     --threads N       parallel portfolio of N workers racing the
///                       chosen engine plus diversified alternatives
///                       (default 1)
///     --timeout SECONDS wall-clock budget, a positive number (default:
///                       none)
///     --mem-mb N        cooperative memory cap in MiB: the solver
///                       tracks its own clause-storage footprint
///                       (SolverStats::mem_bytes) and aborts with a
///                       structured "memory" reason instead of letting
///                       the process OOM (default: none)
///     --reuse-trail / --no-reuse-trail
///                       warm-started oracle calls: keep the solver
///                       trail across solve calls and re-propagate only
///                       the diverged assumption suffix (default: on;
///                       Solver::Options::reuse_trail)
///     --restart MODE    restart trajectory: luby (default), geom, or
///                       ema (glucose-style adaptive restarts with
///                       stable/focused mode switching and best-phase
///                       rephasing; Solver::Options::ema_restarts)
///     --stats           print run statistics (engine + CDCL substrate
///                       in one aligned block)
///     --trace FILE      record an execution trace (oracle calls, core
///                       trimming, restart segments, import drains,
///                       portfolio workers) and write it as Chrome
///                       trace_event JSON — open FILE in Perfetto
///                       (ui.perfetto.dev) or chrome://tracing; see
///                       bench/README.md "Reading a trace"
///     --no-model        suppress the v line
///     --list            list available engines

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cnf/dimacs.h"
#include "harness/factory.h"
#include "harness/tables.h"
#include "obs/trace.h"
#include "par/portfolio.h"

namespace {

void usage() {
  std::cout <<
      "usage: maxsat_cli [--algo NAME] [--threads N]\n"
      "                  [--timeout SEC] [--mem-mb N]\n"
      "                  [--reuse-trail|--no-reuse-trail]\n"
      "                  [--restart luby|geom|ema] [--stats]\n"
      "                  [--trace FILE] [--no-model]\n"
      "                  [--list] [file.wcnf|-]\n"
      "  NAME: msu4-v2 (default), msu4-v1, pbo, maxsatz, msu1, linear,\n"
      "        oll, ... (--list prints every engine)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  std::string algo = "msu4-v2";
  int threads = 1;
  double timeout = 0.0;
  double memMb = 0.0;
  bool reuseTrail = Solver::Options{}.reuse_trail;
  std::string restart = "luby";
  bool stats = false;
  bool printModel = true;
  std::string tracePath;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algo" && i + 1 < argc) {
      algo = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) {
        std::cerr << "c --threads wants a positive count\n";
        return 2;
      }
    } else if (arg == "--timeout" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      timeout = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(timeout > 0.0)) {
        std::cerr << "c --timeout wants a positive number of seconds\n";
        return 2;
      }
    } else if (arg == "--mem-mb" && i + 1 < argc) {
      memMb = std::atof(argv[++i]);
      if (memMb <= 0.0) {
        std::cerr << "c --mem-mb wants a positive cap\n";
        return 2;
      }
    } else if (arg == "--reuse-trail") {
      reuseTrail = true;
    } else if (arg == "--no-reuse-trail") {
      reuseTrail = false;
    } else if (arg == "--restart" && i + 1 < argc) {
      restart = argv[++i];
      if (restart != "luby" && restart != "geom" && restart != "ema") {
        std::cerr << "c --restart wants luby, geom or ema\n";
        return 2;
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (arg == "--no-model") {
      printModel = false;
    } else if (arg == "--list") {
      for (const std::string& name : solverNames()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else {
      path = arg;
    }
  }

  WcnfFormula instance;
  try {
    if (path.empty() || path == "-") {
      instance = readDimacsWcnf(std::cin);
    } else {
      instance = loadDimacsWcnf(path);
    }
  } catch (const DimacsError& e) {
    std::cerr << "c parse error: " << e.what() << "\n";
    return 2;
  }
  std::cout << "c " << instance.summary() << "\n";

  MaxSatOptions opts;
  if (timeout > 0.0) opts.budget = Budget::wallClock(timeout);
  if (memMb > 0.0) {
    opts.budget.setMaxMemory(static_cast<std::int64_t>(memMb * 1024 * 1024));
  }
  // Shared across every Budget copy the engines make: lets the c-line
  // below name the limit that actually stopped an Unknown run.
  std::atomic<int> abortSink{static_cast<int>(AbortReason::kNone)};
  opts.budget.setAbortSink(&abortSink);
  obs::Tracer tracer;
  if (!tracePath.empty()) {
    tracer.setEnabled(true);
    opts.sat.trace = &tracer;
  }
  opts.sat.reuse_trail = reuseTrail;
  opts.sat.luby_restarts = restart != "geom";
  opts.sat.ema_restarts = restart == "ema";
  std::unique_ptr<MaxSatSolver> solver;
  PortfolioSolver* portfolio = nullptr;
  if (threads > 1 && algo.rfind("portfolio", 0) == 0) {
    std::cerr << "c note: --threads is ignored for --algo " << algo
              << " (the name fixes the worker count)\n";
  }
  if (threads > 1 && algo.rfind("portfolio", 0) != 0) {
    // Race the requested engine (worker 0, base configuration) against
    // diversified alternatives. Validate the name here:
    // PortfolioSolver silently drops unbuildable engines.
    bool known = false;
    for (const std::string& name : solverNames()) known |= (name == algo);
    if (!known) {
      std::cerr << "c unknown engine '" << algo << "' (see --list)\n";
      return 2;
    }
    PortfolioOptions po;
    po.base = opts;
    po.threads = threads;
    po.engines.push_back(algo);
    for (const std::string& e : PortfolioSolver::defaultEngines()) {
      if (e != algo) po.engines.push_back(e);
    }
    auto p = std::make_unique<PortfolioSolver>(po);
    portfolio = p.get();
    solver = std::move(p);
  } else {
    solver = makeSolver(algo, opts);
  }
  if (!solver) {
    std::cerr << "c unknown engine '" << algo << "' (see --list)\n";
    return 2;
  }
  std::cout << "c engine: " << solver->name() << "\n";

  const MaxSatResult result = solver->solve(instance);
  if (portfolio != nullptr && portfolio->lastWinner() >= 0) {
    std::cout << "c portfolio winner: worker " << portfolio->lastWinner()
              << " (" << portfolio->lastWinnerEngine() << ")\n";
  }

  switch (result.status) {
    case MaxSatStatus::Optimum:
      std::cout << "o " << result.cost << "\n";
      std::cout << "s OPTIMUM FOUND\n";
      if (printModel) {
        std::cout << "v";
        for (std::size_t v = 0; v < result.model.size(); ++v) {
          std::cout << ' '
                    << (result.model[v] == lbool::True
                            ? static_cast<int>(v) + 1
                            : -(static_cast<int>(v) + 1));
        }
        std::cout << "\n";
      }
      break;
    case MaxSatStatus::UnsatisfiableHard:
      std::cout << "s UNSATISFIABLE\n";
      break;
    case MaxSatStatus::Unknown: {
      const auto reason = static_cast<AbortReason>(abortSink.load());
      if (reason != AbortReason::kNone) {
        std::cout << "c abort: " << toString(reason) << "\n";
      }
      std::cout << "c bounds: " << result.lowerBound << " <= cost <= "
                << result.upperBound << "\n";
      std::cout << "s UNKNOWN\n";
      break;
    }
  }

  if (stats) {
    // One aligned block: engine counters, then the CDCL substrate's
    // search/propagation/lifecycle rows.
    const EngineRunCounters eng{result.iterations, result.coresFound,
                                result.satCalls};
    printRunStats(std::cout, eng, result.satStats, "run statistics:", "c ");
  }
  if (!tracePath.empty()) {
    // Workers are joined (solve returned), so the export-at-quiescence
    // contract holds here.
    if (tracer.exportChromeTrace(tracePath)) {
      std::cout << "c trace: wrote " << tracePath << " ("
                << tracer.retained() << " events";
      if (tracer.dropped() > 0) {
        std::cout << ", " << tracer.dropped() << " dropped";
      }
      std::cout << ")\n";
    } else {
      std::cerr << "c trace: cannot write " << tracePath << "\n";
    }
  }
  return result.status == MaxSatStatus::Unknown ? 1 : 0;
}
