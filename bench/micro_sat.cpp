/// \file micro_sat.cpp
/// \brief Micro-benchmarks of the CDCL substrate: end-to-end solving
///        throughput on the instance families the MaxSAT engines stress
///        (miters, BMC, pigeonhole, random), plus assumption-based core
///        extraction latency.
///
/// Usage: micro_sat [--reps N] [--json [path]] [--baseline path]
///                  [--reuse-trail] [--restart luby|ema]
///
///   --json      write BENCH_micro_sat.json (per-benchmark wall time and
///               propagation counters) for the PR-over-PR perf trajectory
///   --baseline  compare against a previously recorded JSON (defaults to
///               bench/BASELINE_micro_sat.json when present)
///   --reuse-trail
///               enable warm-started solves (Options::reuse_trail).
///               OFF here regardless of the solver default: the up-*
///               cases are the regression gate's machine-speed probes
///               and must keep measuring cold re-propagation (warm
///               waves are near-free and measured by micro_incremental
///               instead).
///   --restart   restart trajectory A/B (Options::ema_restarts);
///               default luby
///
/// Each benchmark runs `reps` times; the best wall time is reported so
/// one-off scheduler noise does not pollute the trajectory.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "gen/bmc.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "sat/solver.h"

namespace {

using namespace msu;

struct Case {
  std::string name;
  CnfFormula f;
  lbool expected;
  bool coreExtraction = false;
  /// > 0: incremental UP-throughput mode — solve this many times under
  /// the assumption x0 on ONE solver, so every solve re-propagates the
  /// whole implication chain (the MaxSAT engines' incremental pattern).
  int waves = 0;
};

std::vector<Case> buildCases() {
  std::vector<Case> cases;
  for (const int gates : {400, 1200}) {
    RandomCircuitParams p;
    p.numInputs = 10;
    p.numGates = gates;
    p.numOutputs = 3;
    p.seed = 11;
    cases.push_back({"miter-" + std::to_string(gates),
                     equivalenceInstance(p, 99), lbool::False});
  }
  for (const int steps : {30, 60}) {
    cases.push_back({"bmc-" + std::to_string(steps),
                     bmcCounterInstance({.bits = 6, .steps = steps}),
                     lbool::False});
  }
  for (const int holes : {7, 8}) {
    cases.push_back({"php-" + std::to_string(holes),
                     pigeonhole(holes + 1, holes), lbool::False});
  }
  for (const int n : {250, 300}) {
    cases.push_back({"rand3sat-" + std::to_string(n),
                     randomKSat({.numVars = n,
                                 .numClauses = static_cast<int>(n * 4.0),
                                 .clauseLen = 3,
                                 .seed = 17}),
                     lbool::True});
  }
  for (const int n : {80, 140}) {
    cases.push_back({"core-" + std::to_string(n), randomUnsat3Sat(n, 6.0, 23),
                     lbool::False, /*coreExtraction=*/true});
  }
  // Pure unit-propagation throughput, free of search-trajectory noise:
  // repeated waves of forced implications, deterministic and
  // conflict-free, so wall time here IS propagation time.
  {
    // Binary implication chain: x_i -> x_{i+1}, driven by assuming x0.
    const int n = 60000;
    CnfFormula f(n + 1);
    for (int i = 0; i < n; ++i) {
      f.addClause({negLit(i), posLit(i + 1)});
    }
    cases.push_back({"up-bin-60k", std::move(f), lbool::True,
                     /*coreExtraction=*/false, /*waves=*/50});
  }
  {
    // Long-clause chain: (~x_i | ~y1 | ~y2 | ~y3 | ~y4 | x_{i+1}) with
    // all y true, so every step scans a 6-literal clause.
    const int n = 30000;
    CnfFormula f(n + 5);
    const Var y0 = n + 1;
    for (int i = 0; i < n; ++i) {
      f.addClause({negLit(i), negLit(y0), negLit(y0 + 1), negLit(y0 + 2),
                   negLit(y0 + 3), posLit(i + 1)});
    }
    for (int k = 0; k < 4; ++k) f.addClause({posLit(y0 + k)});
    cases.push_back({"up-long-30k", std::move(f), lbool::True,
                     /*coreExtraction=*/false, /*waves=*/50});
  }
  return cases;
}

bool g_reuse_trail = false;  // see the file comment: probes stay cold
bool g_ema_restarts = false;

/// One full run of a case on a fresh solver; returns wall seconds.
double runOnce(const Case& c, SolverStats& statsOut) {
  const auto t0 = std::chrono::steady_clock::now();
  Solver::Options opts;
  opts.reuse_trail = g_reuse_trail;
  opts.ema_restarts = g_ema_restarts;
  Solver s(opts);
  // UP-throughput cases keep the chain variables out of the decision
  // heap so wall time measures propagation, not heap churn.
  while (s.numVars() < c.f.numVars()) {
    static_cast<void>(s.newVar(c.waves == 0 || s.numVars() == 0));
  }
  lbool status = lbool::Undef;
  if (c.waves > 0) {
    for (const Clause& cl : c.f.clauses()) {
      if (!s.addClause(cl)) break;
    }
    const std::vector<Lit> assumps{posLit(0)};
    for (int w = 0; w < c.waves; ++w) {
      status = s.solve(assumps);
      if (status != c.expected) break;
    }
  } else if (c.coreExtraction) {
    // Selector-per-clause core extraction — the exact operation inside
    // every msu4 UNSAT iteration.
    std::vector<Lit> assumps;
    for (const Clause& cl : c.f.clauses()) {
      const Var sel = s.newVar();
      Clause aug = cl;
      aug.push_back(posLit(sel));
      static_cast<void>(s.addClause(aug));
      assumps.push_back(negLit(sel));
    }
    status = s.solve(assumps);
  } else {
    bool ok = true;
    for (const Clause& cl : c.f.clauses()) {
      if (!s.addClause(cl)) {
        ok = false;
        break;
      }
    }
    status = ok ? s.solve() : lbool::False;
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (status != c.expected) {
    std::cerr << c.name << ": unexpected status\n";
    std::exit(1);
  }
  statsOut = s.stats();
  return secs;
}

std::vector<std::pair<std::string, std::int64_t>> counters(
    const SolverStats& st) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  st.forEachField(
      [&out](const char* name, std::int64_t v) { out.emplace_back(name, v); });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  bool json = false;
  std::string jsonPath = "BENCH_micro_sat.json";
  std::string baselinePath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--json") {
      json = true;
      // Only a *.json argument is an output path, so `--json` followed
      // by another option (or a positional) is never misparsed.
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else if (arg == "--baseline" && i + 1 < argc) {
      baselinePath = argv[++i];
    } else if (arg == "--reuse-trail") {
      g_reuse_trail = true;
    } else if (arg == "--restart" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "ema") {
        g_ema_restarts = true;
      } else if (mode != "luby") {
        std::cerr << "--restart wants luby or ema\n";
        return 2;
      }
    } else {
      std::cerr << "usage: micro_sat [--reps N] [--json [path]] "
                   "[--baseline path] [--reuse-trail] "
                   "[--restart luby|ema]\n";
      return 2;
    }
  }
  if (baselinePath.empty()) {
    for (const char* candidate :
         {"bench/BASELINE_micro_sat.json", "../bench/BASELINE_micro_sat.json",
          "BASELINE_micro_sat.json"}) {
      if (std::ifstream(candidate)) {
        baselinePath = candidate;
        break;
      }
    }
  }
  const benchjson::Baseline baseline = benchjson::loadBaseline(baselinePath);

  const std::vector<Case> cases = buildCases();
  std::vector<benchjson::BenchRecord> records;

  std::cout << std::left << std::setw(14) << "benchmark" << std::right
            << std::setw(11) << "wall[ms]" << std::setw(11) << "conflicts"
            << std::setw(13) << "props" << std::setw(12) << "conf/s"
            << (baseline.empty() ? "" : "    vs-base") << '\n';

  double logRatioSum = 0.0;
  int ratioCount = 0;
  for (const Case& c : cases) {
    double best = 1e300;
    SolverStats st;
    for (int r = 0; r < reps; ++r) {
      SolverStats runStats;
      best = std::min(best, runOnce(c, runStats));
      st = runStats;
    }
    benchjson::BenchRecord rec;
    rec.name = c.name;
    rec.wallMs = best * 1e3;
    rec.reps = reps;
    rec.counters = counters(st);
    records.push_back(rec);

    std::cout << std::left << std::setw(14) << c.name << std::right
              << std::setw(11) << std::fixed << std::setprecision(2)
              << rec.wallMs << std::setw(11) << st.conflicts << std::setw(13)
              << st.propagations << std::setw(12) << std::setprecision(0)
              << (best > 0 ? static_cast<double>(st.conflicts) / best : 0.0);
    const auto it = baseline.find(c.name);
    if (it != baseline.end() && it->second > 0 && rec.wallMs > 0) {
      const double speedup = it->second / rec.wallMs;
      std::cout << "    " << std::setprecision(2) << speedup << "x";
      logRatioSum += std::log(speedup);
      ++ratioCount;
    }
    std::cout << '\n';
  }

  if (ratioCount > 0) {
    std::cout << "\ngeomean speedup vs " << baselinePath << ": "
              << std::setprecision(3) << std::exp(logRatioSum / ratioCount)
              << "x\n";
  }
  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "micro_sat", records)) return 1;
    std::cout << "wrote " << jsonPath << '\n';
  }
  return 0;
}
