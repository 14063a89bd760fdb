/// \file ablation_inprocess.cpp
/// \brief Inprocessing ablation: does keeping the incremental oracle's
///        clause database irredundant and its variable set small
///        between solve calls pay for itself on the MaxSAT engines'
///        workloads?
///
/// Runs msu4-v2 over the mixed suite as paired A/B cases in the format
/// check_regression.py --mode ab gates: `all/off` vs `all/on` measures
/// the whole subsystem, and each per-pass case (`subsume`, `bve`)
/// measures one pass's marginal value — its `/off` leg is the full
/// configuration with exactly that pass disabled, its `/on` leg the
/// full configuration. Records deliberately carry no `sat_calls`
/// counter, so the gate compares raw wall time (the two legs solve
/// identical instances end to end). The decision record for
/// Options::inprocess lives in bench/README.md and points here.
///
/// Every answer is checked: an optimum's model must satisfy the hard
/// clauses and cost what the engine claims, and all legs must agree on
/// each instance's optimum. Any failure makes the run exit 1.
///
/// Usage: ablation_inprocess [--timeout S] [--size-scale X]
///                           [--per-family N] [--reps N] [--json [path]]

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/msu4.h"
#include "harness/runner.h"
#include "harness/suite.h"

namespace {

struct Variant {
  std::string name;  ///< A/B record name, e.g. "bve/off"
  msu::Solver::Options sat;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  double timeout = 1.0;
  SuiteParams sp;
  sp.sizeScale = 0.5;
  sp.perFamily = 4;
  int reps = 3;
  bool json = false;
  std::string jsonPath = "BENCH_ablation_inprocess.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--timeout") {
      timeout = std::atof(value());
    } else if (arg == "--size-scale") {
      sp.sizeScale = std::atof(value());
    } else if (arg == "--per-family") {
      sp.perFamily = std::atoi(value());
    } else if (arg == "--reps") {
      reps = std::atoi(value());
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else {
      std::cerr << "unknown argument: " << arg << '\n';
      std::cerr << "usage: ablation_inprocess [--timeout S] [--size-scale X]"
                   " [--per-family N] [--reps N] [--json [path]]\n";
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  const std::vector<Instance> suite = buildMixedSuite(sp);

  // The full configuration every `/on` leg runs.
  Solver::Options on;
  on.inprocess = true;

  std::vector<Variant> variants;
  const auto addCase = [&variants, &on](const std::string& name,
                                        const Solver::Options& off) {
    variants.push_back({name + "/off", off});
    variants.push_back({name + "/on", on});
  };
  addCase("all", {});  // whole subsystem: off leg never runs a pass
  {
    Solver::Options o = on;
    o.inprocess_occ_limit = 0;  // subsumption/strengthening stage
    addCase("subsume", o);
  }
  {
    Solver::Options o = on;
    o.inprocess_bve_occ_limit = 0;
    addCase("bve", o);
  }

  std::cout << "Inprocessing ablation under msu4-v2, " << suite.size()
            << " instances, timeout " << timeout << " s, best of " << reps
            << " rep(s)\n\n";
  std::cout << std::left << std::setw(14) << "case" << std::right
            << std::setw(9) << "aborted" << std::setw(9) << "solved"
            << std::setw(9) << "passes" << std::setw(10) << "subsumed"
            << std::setw(9) << "elim" << std::setw(12) << "best t[s]" << '\n';

  std::vector<benchjson::BenchRecord> records;
  std::vector<RunRecord> runs;  // one per leg and instance, for cross-checks
  int badModels = 0;
  for (const Variant& v : variants) {
    double best = 0.0;
    SolverStats agg;
    int aborted = 0;
    int solved = 0;
    for (int rep = 0; rep < reps; ++rep) {
      SolverStats repAgg;
      int repAborted = 0;
      int repSolved = 0;
      double total = 0.0;
      for (const Instance& inst : suite) {
        MaxSatOptions o;
        o.sat = v.sat;
        o.budget = Budget::wallClock(timeout);
        Msu4Solver solver(o);
        const auto t0 = std::chrono::steady_clock::now();
        const MaxSatResult r = solver.solve(inst.wcnf);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        total += secs;
        repAgg += r.satStats;
        if (r.status == MaxSatStatus::Optimum &&
            inst.wcnf.cost(r.model) != r.cost) {
          ++badModels;
          std::cerr << "BAD MODEL on " << inst.name << " (" << v.name
                    << "): claimed cost " << r.cost
                    << " does not match the model\n";
        }
        if (rep == 0) {
          runs.push_back({v.name, inst.name, inst.family, r.status, r.cost,
                          secs, r.status == MaxSatStatus::Unknown});
        }
        if (r.status == MaxSatStatus::Unknown) {
          ++repAborted;
        } else {
          ++repSolved;
        }
      }
      if (rep == 0 || total < best) {
        best = total;
        agg = repAgg;
        aborted = repAborted;
        solved = repSolved;
      }
    }
    std::cout << std::left << std::setw(14) << v.name << std::right
              << std::setw(9) << aborted << std::setw(9) << solved
              << std::setw(9) << agg.inproc_passes << std::setw(10)
              << agg.inproc_subsumed << std::setw(9)
              << agg.inproc_bve_eliminated << std::setw(12) << std::fixed
              << std::setprecision(2) << best << '\n';

    benchjson::BenchRecord rec;
    rec.name = v.name;
    rec.wallMs = best * 1e3;
    rec.reps = reps;
    rec.counters = {{"aborted", aborted}, {"solved", solved}};
    agg.forEachField([&rec](const char* name, std::int64_t value) {
      rec.counters.emplace_back(name, value);
    });
    records.push_back(rec);
  }
  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "ablation_inprocess", records)) {
      return 1;
    }
    std::cout << "\nwrote " << jsonPath << '\n';
  }
  const int disagreements = crossCheckOptima(runs, std::cerr);
  return badModels > 0 || disagreements > 0 ? 1 : 0;
}
