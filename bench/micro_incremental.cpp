/// \file micro_incremental.cpp
/// \brief Solve-call throughput of the incremental oracle under the
///        warm-start A/B (Solver::Options::reuse_trail): every case is
///        run twice — reuse OFF (the cancelUntil(0)-per-solve engine)
///        and reuse ON (assumption-prefix trail reuse) — and the driver
///        reports per-case oracle-call throughput plus the geomean
///        speedup. This is the evidence behind the reuse_trail default;
///        the committed bench/BENCH_micro_incremental.json is gated in
///        CI via check_regression.py --mode ab (the on/off *ratio* is
///        machine-independent, unlike raw wall clocks).
///
/// Usage: micro_incremental [--reps N] [--json [path]]
///
/// Two kinds of cases:
///
///  * Engine traces: real MaxSAT engines (msu4-v2 / msu3 / oll, the
///    incremental engine suite) solved end-to-end, so the measured mix
///    of assumption reuse, warm clause attachment and prefix
///    invalidation is exactly what the engines produce.
///  * Session traces: an OracleSession-style selector workload driven
///    directly (solve / relax / solve ...), isolating oracle-call
///    overhead from conflict search. `steady` repeats one assumption
///    set (the trimCore pattern), `relax-tail` shrinks the
///    set from the back (maximal surviving prefix), `relax-head`
///    shrinks it from the front (adversarial: no prefix survives —
///    this one bounds the cost of having reuse on when it cannot pay).
///
/// Both runs of a case must agree on the result (optimum cost / SAT
/// status checksum); the driver aborts otherwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/soft_tracker.h"
#include "gen/graphs.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "sat/solver.h"

namespace {

using namespace msu;

/// One measured A/B leg: wall seconds, oracle calls, solver counters
/// and a result checksum that must match between the legs.
struct RunOut {
  double secs = 0.0;
  std::int64_t satCalls = 0;
  SolverStats stats;
  std::int64_t checksum = 0;  // optimum cost / SAT-status checksum
};

struct Case {
  std::string name;
  std::function<RunOut(bool reuse)> run;
};

/// End-to-end engine trace through the harness factory.
Case engineCase(const std::string& name, const std::string& engine,
                WcnfFormula wcnf, int trimRounds = 0) {
  return {name, [engine, wcnf = std::move(wcnf), trimRounds](bool reuse) {
            MaxSatOptions o;
            o.sat.reuse_trail = reuse;
            o.trimCoreRounds = trimRounds;
            const std::unique_ptr<MaxSatSolver> solver =
                makeSolver(engine, o);
            if (solver == nullptr) {
              std::cerr << "unknown engine " << engine << '\n';
              std::exit(1);
            }
            const auto t0 = std::chrono::steady_clock::now();
            const MaxSatResult r = solver->solve(wcnf);
            RunOut out;
            out.secs = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            if (r.status != MaxSatStatus::Optimum) {
              std::cerr << engine << ": no optimum\n";
              std::exit(1);
            }
            out.satCalls = r.satCalls;
            out.stats = r.satStats;
            out.checksum = r.cost;
            return out;
          }};
}

/// Selector workload: `n` soft units, each propagating a short hard
/// implication chain when enforced — the per-assumption propagation
/// cost every cold oracle call pays from scratch.
WcnfFormula selectorWorkload(int n, int chain) {
  WcnfFormula f(n * (chain + 1));
  for (int i = 0; i < n; ++i) {
    const Var x = i * (chain + 1);
    f.addSoft({posLit(x)});
    for (int c = 0; c < chain; ++c) {
      f.addHard({negLit(x + c), posLit(x + c + 1)});
    }
  }
  return f;
}

/// Session trace: solve `calls` times, relaxing soft clauses between
/// calls per `nextRelax` (return < 0: relax nothing this iteration).
Case sessionCase(const std::string& name, int n, int chain, int calls,
                 std::function<int(int iter, int n)> nextRelax) {
  return {name, [=](bool reuse) {
            const WcnfFormula f = selectorWorkload(n, chain);
            Solver::Options so;
            so.reuse_trail = reuse;
            Solver s(so);
            SoftTracker tracker(s, f);
            RunOut out;
            const auto t0 = std::chrono::steady_clock::now();
            for (int it = 0; it < calls; ++it) {
              const int relax = nextRelax(it, n);
              if (relax >= 0) tracker.relax(relax);
              const std::vector<Lit> assumps = tracker.assumptions();
              const lbool st = s.solve(assumps);
              ++out.satCalls;
              out.checksum = out.checksum * 3 + (st == lbool::True ? 1 : 2);
            }
            out.secs = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            out.stats = s.stats();
            return out;
          }};
}

std::vector<Case> buildCases() {
  std::vector<Case> cases;

  // Engine traces (the incremental engine suite).
  cases.push_back(engineCase(
      "msu4v2-rnd3sat40", "msu4-v2",
      WcnfFormula::allSoft(randomUnsat3Sat(40, 5.6, 7))));
  cases.push_back(engineCase(
      "msu4v2-trim-rnd3sat38", "msu4-v2",
      WcnfFormula::allSoft(randomUnsat3Sat(38, 6.0, 3)), /*trimRounds=*/2));
  cases.push_back(engineCase(
      "msu3-rnd3sat40", "msu3",
      WcnfFormula::allSoft(randomUnsat3Sat(40, 5.6, 7))));
  {
    const Graph g = randomGraph(16, 0.5, 112);
    cases.push_back(engineCase(
        "msu3-maxcut16", "msu3",
        maxCutInstance(g, std::vector<Weight>(g.edges.size(), 1))));
  }
  {
    const Graph g = randomGraph(18, 0.45, 114);
    std::vector<Weight> w;
    w.reserve(g.edges.size());
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      w.push_back(1 + static_cast<Weight>((e * 7) % 9));
    }
    cases.push_back(engineCase("oll-wmaxcut18", "oll", maxCutInstance(g, w)));
  }
  cases.push_back(engineCase(
      "oll-rnd3sat40", "oll",
      WcnfFormula::allSoft(randomUnsat3Sat(40, 5.6, 7))));

  // Session traces (oracle-call overhead isolated from search).
  cases.push_back(sessionCase("session-steady", 400, 4, 150,
                              [](int, int) { return -1; }));
  cases.push_back(sessionCase("session-relax-tail", 400, 4, 150,
                              [](int it, int n) { return n - 1 - it; }));
  cases.push_back(sessionCase("session-relax-head", 400, 4, 150,
                              [](int it, int) { return it; }));
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  bool json = false;
  std::string jsonPath = "BENCH_micro_incremental.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else {
      std::cerr << "usage: micro_incremental [--reps N] [--json [path]]\n";
      return 2;
    }
  }

  const std::vector<Case> cases = buildCases();
  std::vector<benchjson::BenchRecord> records;

  std::cout << std::left << std::setw(24) << "case" << std::right
            << std::setw(10) << "off[ms]" << std::setw(10) << "on[ms]"
            << std::setw(9) << "calls" << std::setw(12) << "calls/s-on"
            << std::setw(10) << "speedup" << '\n';

  double logSum = 0.0;
  for (const Case& c : cases) {
    RunOut best[2];
    for (int mode = 0; mode < 2; ++mode) {
      for (int r = 0; r < reps; ++r) {
        RunOut out = c.run(/*reuse=*/mode == 1);
        if (r == 0 || out.secs < best[mode].secs) best[mode] = out;
      }
    }
    if (best[0].checksum != best[1].checksum) {
      std::cerr << c.name << ": reuse on/off disagree (" << best[0].checksum
                << " vs " << best[1].checksum << ")\n";
      return 1;
    }
    // Solve-call throughput: the call counts may differ (warm starts
    // change the search trajectory), so compare calls/second, not wall.
    const double thrOff =
        static_cast<double>(best[0].satCalls) / best[0].secs;
    const double thrOn = static_cast<double>(best[1].satCalls) / best[1].secs;
    const double speedup = thrOn / thrOff;
    logSum += std::log(speedup);

    for (int mode = 0; mode < 2; ++mode) {
      benchjson::BenchRecord rec;
      rec.name = c.name + (mode == 0 ? "/off" : "/on");
      rec.wallMs = best[mode].secs * 1e3;
      rec.reps = reps;
      rec.counters = {
          {"sat_calls", best[mode].satCalls},
          {"conflicts", best[mode].stats.conflicts},
          {"propagations", best[mode].stats.propagations},
          {"reused_trail_lits", best[mode].stats.reused_trail_lits},
      };
      records.push_back(rec);
    }

    std::cout << std::left << std::setw(24) << c.name << std::right
              << std::setw(10) << std::fixed << std::setprecision(2)
              << best[0].secs * 1e3 << std::setw(10) << best[1].secs * 1e3
              << std::setw(9) << best[1].satCalls << std::setw(12)
              << std::setprecision(0) << thrOn << std::setw(9)
              << std::setprecision(2) << speedup << "x\n";
  }

  std::cout << "\ngeomean solve-call throughput speedup (reuse on vs off): "
            << std::setprecision(3)
            << std::exp(logSum / static_cast<double>(cases.size())) << "x\n";

  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "micro_incremental", records)) {
      return 1;
    }
    std::cout << "wrote " << jsonPath << '\n';
  }
  return 0;
}
