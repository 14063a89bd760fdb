/// \file ablation_sat_opts.cpp
/// \brief Substrate ablation: how much of msu4's performance comes from
///        the CDCL heuristics the paper inherits from MiniSat? Runs
///        msu4-v2 with conflict-clause minimization off/basic/recursive,
///        phase saving off, geometric instead of Luby restarts, no
///        warm-started oracle calls, and the adaptive EMA restart
///        trajectory.
///
/// Usage: ablation_sat_opts [timeout_seconds] [size_scale] [per_family]
///                          [--json [path]]
///
/// `--json` additionally writes BENCH_ablation_sat_opts.json with the
/// per-variant wall time and propagation counters.

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/msu4.h"
#include "harness/suite.h"

namespace {

struct Variant {
  std::string name;
  msu::Solver::Options sat;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  bool json = false;
  std::string jsonPath = "BENCH_ablation_sat_opts.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      // Only a *.json argument is an output path; this keeps `--json`
      // composable with the numeric positionals in any order.
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else {
      positional.push_back(arg);
    }
  }

  const double timeout =
      positional.size() > 0 ? std::atof(positional[0].c_str()) : 1.0;
  SuiteParams sp;
  sp.sizeScale =
      positional.size() > 1 ? std::atof(positional[1].c_str()) : 0.5;
  sp.perFamily = positional.size() > 2 ? std::atoi(positional[2].c_str()) : 6;
  const std::vector<Instance> suite = buildMixedSuite(sp);

  std::vector<Variant> variants;
  variants.push_back({"baseline", {}});
  {
    Variant v{"ccmin-off", {}};
    v.sat.ccmin_mode = 0;
    variants.push_back(v);
  }
  {
    Variant v{"ccmin-basic", {}};
    v.sat.ccmin_mode = 1;
    variants.push_back(v);
  }
  {
    Variant v{"no-phase-saving", {}};
    v.sat.phase_saving = false;
    variants.push_back(v);
  }
  {
    Variant v{"geometric-restart", {}};
    v.sat.luby_restarts = false;
    variants.push_back(v);
  }
  {
    // Warm-start A/B: the baseline runs the default (reuse on), this
    // lever isolates what the assumption-prefix reuse is worth.
    Variant v{"no-reuse-trail", {}};
    v.sat.reuse_trail = false;
    variants.push_back(v);
  }
  {
    Variant v{"ema-restart", {}};
    v.sat.ema_restarts = true;
    variants.push_back(v);
  }

  std::cout << "CDCL-option ablation under msu4-v2, " << suite.size()
            << " instances, timeout " << timeout << " s\n\n";
  std::cout << std::left << std::setw(20) << "variant" << std::right
            << std::setw(9) << "aborted" << std::setw(9) << "solved"
            << std::setw(13) << "conflicts" << std::setw(13) << "bin-props"
            << std::setw(13) << "long-props" << std::setw(12) << "total t[s]"
            << '\n';

  std::vector<benchjson::BenchRecord> records;
  for (const Variant& v : variants) {
    int aborted = 0;
    int solved = 0;
    SolverStats agg;
    double total = 0.0;
    for (const Instance& inst : suite) {
      MaxSatOptions o;
      o.sat = v.sat;
      o.budget = Budget::wallClock(timeout);
      Msu4Solver solver(o);
      const auto t0 = std::chrono::steady_clock::now();
      const MaxSatResult r = solver.solve(inst.wcnf);
      total += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      agg += r.satStats;
      if (r.status == MaxSatStatus::Unknown) {
        ++aborted;
      } else {
        ++solved;
      }
    }
    std::cout << std::left << std::setw(20) << v.name << std::right
              << std::setw(9) << aborted << std::setw(9) << solved
              << std::setw(13) << agg.conflicts << std::setw(13)
              << agg.binary_propagations << std::setw(13)
              << agg.long_propagations << std::setw(12) << std::fixed
              << std::setprecision(2) << total << '\n';

    benchjson::BenchRecord rec;
    rec.name = v.name;
    rec.wallMs = total * 1e3;
    rec.counters = {{"aborted", aborted}, {"solved", solved}};
    agg.forEachField([&rec](const char* name, std::int64_t value) {
      rec.counters.emplace_back(name, value);
    });
    records.push_back(rec);
  }
  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "ablation_sat_opts", records)) {
      return 1;
    }
    std::cout << "\nwrote " << jsonPath << '\n';
  }
  return 0;
}
