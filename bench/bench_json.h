/// \file bench_json.h
/// \brief Minimal JSON emission + baseline parsing shared by the bench
///        drivers' `--json` modes. Each driver writes a
///        `BENCH_<name>.json` file with one record per benchmark (wall
///        time plus named integer counters), so the repo's performance
///        trajectory can be tracked PR-over-PR. A previously recorded
///        file can be re-loaded as a baseline for before/after ratios.
///
/// The format is deliberately flat so the loader can be a few lines of
/// string scanning rather than a JSON library:
///
/// {
///   "bench": "micro_sat",
///   "nproc": 4,
///   "records": [
///     { "name": "miter-100", "wall_ms": 12.5, "reps": 3,
///       "counters": { "conflicts": 123, "propagations": 4567 } },
///     ...
///   ]
/// }
///
/// `nproc` is std::thread::hardware_concurrency() of the recording
/// machine, so a multi-worker record always says how many cores it had.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace msu::benchjson {

/// One benchmark measurement: best wall time over `reps` repetitions
/// plus whatever counters the driver wants tracked.
struct BenchRecord {
  std::string name;
  double wallMs = 0.0;
  int reps = 1;
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

inline void writeJson(std::ostream& out, const std::string& benchName,
                      const std::vector<BenchRecord>& records) {
  out << "{\n  \"bench\": \"" << benchName << "\",\n  \"nproc\": "
      << std::thread::hardware_concurrency() << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    { \"name\": \"" << r.name << "\", \"wall_ms\": " << r.wallMs
        << ", \"reps\": " << r.reps << ", \"counters\": { ";
    for (std::size_t k = 0; k < r.counters.size(); ++k) {
      out << "\"" << r.counters[k].first << "\": " << r.counters[k].second;
      if (k + 1 < r.counters.size()) out << ", ";
    }
    out << " } }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

inline bool writeJsonFile(const std::string& path,
                          const std::string& benchName,
                          const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  writeJson(out, benchName, records);
  return true;
}

/// Baseline data: per-benchmark wall time (ms), keyed by name.
using Baseline = std::map<std::string, double>;

/// Loads `"name": ... "wall_ms":` pairs from a file previously written
/// by writeJson. Returns an empty map when the file is absent/unreadable.
inline Baseline loadBaseline(const std::string& path) {
  Baseline base;
  std::ifstream in(path);
  if (!in) return base;
  std::string line;
  while (std::getline(in, line)) {
    const auto namePos = line.find("\"name\": \"");
    const auto wallPos = line.find("\"wall_ms\": ");
    if (namePos == std::string::npos || wallPos == std::string::npos) continue;
    const auto nameStart = namePos + 9;
    const auto nameEnd = line.find('"', nameStart);
    if (nameEnd == std::string::npos) continue;
    const std::string name = line.substr(nameStart, nameEnd - nameStart);
    base[name] = std::strtod(line.c_str() + wallPos + 11, nullptr);
  }
  return base;
}

}  // namespace msu::benchjson
