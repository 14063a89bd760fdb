/// \file bench_portfolio.cpp
/// \brief Wall-clock benchmark of the parallel portfolio (src/par):
///        each instance is solved by the same portfolio configuration
///        (base engine msu4-v2 plus the default diversified cycle) at
///        1, 2 and 4 workers, and the driver reports per-instance
///        speedups plus the 1→4-thread geomean.
///
/// Usage: bench_portfolio [--reps N] [--json [path]] [--trace FILE]
///
///   --reps   best-of-N wall times per configuration (default 3: the
///            regression gate compares minima, and on shared CI
///            runners a single sample is mostly scheduler noise)
///   --json   write bench/BENCH_portfolio.json (per-(instance,threads)
///            wall time, cost, SAT calls and winner worker)
///   --trace  instead of the sweep, run ONE 4-worker portfolio solve of
///            the last hard-rich case with the obs tracer enabled and
///            write the Chrome trace_event JSON to FILE (the
///            nightly-CI sample artifact; open it in Perfetto — see
///            bench/README.md "Reading a trace")
///
/// Besides the portfolio sweep the driver emits a `seq-direct` record:
/// the bmc + mix3sat cases solved by plain sequential msu4-v2 calls. Its
/// wall time is a machine-speed probe for check_regression.py
/// (--calibration-prefix seq-), and its deterministic
/// propagation/conflict counters guard the probe itself against silent
/// code drift.
///
/// The suite mixes instances where the base engine is already the right
/// choice (bmc — the portfolio's thread tax shows up honestly) with the
/// cases a portfolio exists for: weighted max-cut (duplication-based
/// msu4 struggles; oll and branch-and-bound finish in milliseconds) and
/// near-threshold random MaxSAT (branch-and-bound wins). All thread
/// counts must report the same optimum — the driver aborts otherwise.
///
/// NOTE on reading the numbers: wall-time speedups here are measured on
/// whatever machine runs the bench; on a single-core container the
/// 4-thread run pays ~4x time-slicing for each racer, so any speedup
/// >= 1 means the portfolio's diversification won by more than the
/// core it gave up.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "gen/bmc.h"
#include "gen/graphs.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "obs/trace.h"
#include "par/portfolio.h"

namespace {

using namespace msu;

struct Case {
  std::string name;
  WcnfFormula wcnf;
};

std::vector<Case> buildCases() {
  std::vector<Case> cases;
  // Weighted max-cut: the portfolio's showcase (oll / maxsatz finish
  // orders of magnitude before duplication-based msu4).
  for (const int n : {14, 16, 18}) {
    const Graph g = randomGraph(n, 0.45, 100 + static_cast<std::uint64_t>(n));
    std::mt19937_64 wrng(200 + static_cast<std::uint64_t>(n));
    std::vector<Weight> weights;
    weights.reserve(g.edges.size());
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      weights.push_back(1 + static_cast<Weight>(wrng() % 9));
    }
    cases.push_back({"wmaxcut-" + std::to_string(n),
                     maxCutInstance(g, weights)});
  }
  // Near-threshold random MaxSAT: branch-and-bound territory.
  cases.push_back({"rnd3sat-40",
                   WcnfFormula::allSoft(randomUnsat3Sat(40, 5.6, 7))});
  cases.push_back({"rnd3sat-44",
                   WcnfFormula::allSoft(randomUnsat3Sat(44, 5.6, 7))});
  cases.push_back({"rnd3sat-40d",
                   WcnfFormula::allSoft(randomUnsat3Sat(40, 6.0, 3))});
  // Control: the base engine is already the best choice here, so these
  // charge the portfolio its full thread tax.
  cases.push_back({"bmc-8-16", WcnfFormula::allSoft(bmcCounterInstance(
                                   {.bits = 8, .steps = 16}))});
  cases.push_back({"bmc-7-14", WcnfFormula::allSoft(bmcCounterInstance(
                                   {.bits = 7, .steps = 14}))});
  // Hard-rich controls: everything above is all-soft, so nothing else
  // makes a worker refute hard clauses. A below-threshold hard random
  // 3-SAT skeleton (satisfiable; the driver aborts on non-Optimum, so a
  // regression here is loud) carries a soft 3-clause load. They also
  // belong to the seq-direct probe.
  for (const auto& [vars, hardN, softN, seed] :
       {std::array<int, 4>{48, 160, 120, 12},
        std::array<int, 4>{40, 136, 110, 21}}) {
    const CnfFormula hard =
        randomKSat({.numVars = vars,
                    .numClauses = hardN,
                    .clauseLen = 3,
                    .seed = static_cast<std::uint64_t>(seed)});
    const CnfFormula soft =
        randomKSat({.numVars = vars,
                    .numClauses = softN,
                    .clauseLen = 3,
                    .seed = static_cast<std::uint64_t>(seed + 1)});
    WcnfFormula w(vars);
    for (int i = 0; i < hard.numClauses(); ++i) w.addHard(hard.clause(i));
    for (int i = 0; i < soft.numClauses(); ++i) w.addSoft(soft.clause(i), 1);
    cases.push_back({"mix3sat-" + std::to_string(vars), std::move(w)});
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  bool writeJson = false;
  std::string jsonPath = "bench/BENCH_portfolio.json";
  std::string tracePath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json") {
      writeJson = true;
      if (i + 1 < argc &&
          std::string(argv[i + 1]).find(".json") != std::string::npos) {
        jsonPath = argv[++i];
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      tracePath = argv[++i];
    } else {
      std::cerr << "usage: bench_portfolio [--reps N] [--json [path]] "
                   "[--trace FILE]\n";
      return 2;
    }
  }

  const std::vector<Case> cases = buildCases();

  if (!tracePath.empty()) {
    // Trace-sample mode: one 4-worker portfolio run of the last
    // hard-rich case (the workers refute hard clauses as well as
    // extract cores there), exported as Chrome trace JSON. Not a
    // measurement — the point is a real multi-worker trace with
    // solve/restart spans across four timelines.
    const Case* traced = nullptr;
    for (const Case& c : cases) {
      if (c.name.rfind("mix3sat-", 0) == 0) traced = &c;
    }
    if (traced == nullptr) traced = &cases.front();
    obs::Tracer tracer;
    tracer.setEnabled(true);
    PortfolioOptions po;
    po.threads = 4;
    po.base.budget = Budget::wallClock(300.0);
    po.base.sat.trace = &tracer;
    PortfolioSolver solver(po);
    const MaxSatResult r = solver.solve(traced->wcnf);
    if (r.status != MaxSatStatus::Optimum) {
      std::cerr << "trace run: " << traced->name << " without an optimum\n";
      return 1;
    }
    if (!tracer.exportChromeTrace(tracePath)) {
      std::cerr << "cannot write " << tracePath << '\n';
      return 1;
    }
    std::cout << "traced " << traced->name << " (4 workers, cost " << r.cost
              << "): wrote " << tracePath << " (" << tracer.retained()
              << " events, " << tracer.dropped() << " dropped, "
              << tracer.threadsSeen() << " threads)\n";
    return 0;
  }
  const std::vector<int> threadCounts{1, 2, 4};
  std::vector<benchjson::BenchRecord> records;
  std::vector<double> speedups;  // t1 / t4 per instance

  // Machine-speed probe: the cases where the base engine is the right
  // tool, solved by plain sequential calls — no threads.
  // Wall time tracks the runner; the counters are deterministic for
  // identical code and guard the probe against silent drift.
  {
    double bestMs = 0.0;
    std::int64_t propagations = 0;
    std::int64_t conflicts = 0;
    int probed = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      propagations = 0;
      conflicts = 0;
      probed = 0;
      for (const Case& c : cases) {
        if (c.name.rfind("bmc-", 0) != 0 && c.name.rfind("mix3sat-", 0) != 0) {
          continue;
        }
        auto engine = makeSolver("msu4-v2", MaxSatOptions{});
        const MaxSatResult r = engine->solve(c.wcnf);
        if (r.status != MaxSatStatus::Optimum) {
          std::cerr << "seq-direct: " << c.name << " without an optimum\n";
          return 1;
        }
        propagations += r.satStats.propagations;
        conflicts += r.satStats.conflicts;
        ++probed;
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (rep == 0 || ms < bestMs) bestMs = ms;
    }
    std::cout << "seq-direct (calibration probe, " << probed
              << " instances): " << std::fixed << std::setprecision(1)
              << bestMs << " ms\n\n";
    benchjson::BenchRecord rec;
    rec.name = "seq-direct";
    rec.wallMs = bestMs;
    rec.reps = reps;
    rec.counters.emplace_back("instances", probed);
    rec.counters.emplace_back("propagations", propagations);
    rec.counters.emplace_back("conflicts", conflicts);
    records.push_back(std::move(rec));
  }

  std::cout << std::left << std::setw(14) << "instance" << std::right
            << std::setw(10) << "t1 ms" << std::setw(10) << "t2 ms"
            << std::setw(10) << "t4 ms" << std::setw(9) << "t1/t4"
            << "  winner(t4)\n";

  for (const Case& c : cases) {
    double wall[3] = {0, 0, 0};
    std::string winner = "-";
    Weight cost = -1;
    for (std::size_t ti = 0; ti < threadCounts.size(); ++ti) {
      PortfolioOptions po;
      po.threads = threadCounts[ti];
      po.base.budget = Budget::wallClock(300.0);
      PortfolioSolver solver(po);
      double best = 0.0;
      MaxSatResult r;
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        r = solver.solve(c.wcnf);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (rep == 0 || ms < best) best = ms;
      }
      wall[ti] = best;
      if (r.status != MaxSatStatus::Optimum) {
        std::cerr << c.name << " t" << threadCounts[ti]
                  << ": no optimum within budget\n";
        return 1;
      }
      if (cost < 0) cost = r.cost;
      if (r.cost != cost) {
        std::cerr << c.name << ": thread counts disagree on the optimum ("
                  << cost << " vs " << r.cost << " at t"
                  << threadCounts[ti] << ")\n";
        return 1;
      }
      if (threadCounts[ti] == 4) {
        winner = solver.lastWinnerEngine() + "#" +
                 std::to_string(solver.lastWinner());
      }
      benchjson::BenchRecord rec;
      rec.name = c.name + "-t" + std::to_string(threadCounts[ti]);
      rec.wallMs = best;
      rec.reps = reps;
      rec.counters.emplace_back("threads", threadCounts[ti]);
      rec.counters.emplace_back("cost", cost);
      rec.counters.emplace_back("sat_calls", r.satCalls);
      rec.counters.emplace_back("winner", solver.lastWinner());
      records.push_back(std::move(rec));
    }
    // Clamp sub-resolution timings so a 0 ms sample cannot drive the
    // geomean's log to -inf.
    const double speedup =
        std::max(wall[0], 0.01) / std::max(wall[2], 0.01);
    speedups.push_back(speedup);
    std::cout << std::left << std::setw(14) << c.name << std::right
              << std::fixed << std::setprecision(1) << std::setw(10)
              << wall[0] << std::setw(10) << wall[1] << std::setw(10)
              << wall[2] << std::setw(9) << std::setprecision(2) << speedup
              << "  " << winner << "\n";
  }

  double logSum = 0.0;
  for (const double s : speedups) logSum += std::log(s);
  const double geomean =
      std::exp(logSum / static_cast<double>(speedups.size()));
  std::cout << "\ngeomean wall-time speedup (1 -> 4 workers): " << std::fixed
            << std::setprecision(2) << geomean << "x\n";

  if (writeJson && !benchjson::writeJsonFile(jsonPath, "portfolio", records)) {
    return 1;
  }
  return 0;
}
