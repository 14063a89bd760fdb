/// \file bench_parse.cpp
/// \brief Huge-instance ingest against the machine floor: every case
///        runs twice over byte-identical synthetic documents
///        (gen/bigfile.h) — `off` = a raw scan of the bytes (one pass
///        that touches every byte, counts tokens and builds nothing),
///        `on` = the fastparse core (plus the solver's bulk-load path
///        for pipeline-cnf). check_regression.py --mode ab gates the
///        committed bench/BENCH_parse.json: the off/on ratio is the
///        share of the parse wall that the floor accounts for, so a
///        slower parser lowers it on any machine (bench/README.md
///        "Parse bench").
///
/// Usage: bench_parse [--target-mb M] [--reps N] [--json [path]]
///
/// Cases:
///  * parse-cnf / parse-wcnf / parse-opb — pure parser wall over an
///    in-memory document (the pipe/borrow path; no disk in the loop).
///  * file-cnf — document on disk: scan of the mmap'd file vs the
///    mmap'd loadDimacsCnf.
///  * pipeline-cnf — text to propagated solver: fastLoadDimacsCnfInto
///    (lexer straight into the bulk-load arena, no intermediate
///    formula). The end-to-end ingest latency a job pays before its
///    first oracle call.
///
/// Each parse is checked against the counts its scan took: the clause
/// terminators (`0` in DIMACS, `;` in OPB) and the tokens the parsed
/// object implies must equal the scanned ones, so the bench aborts on
/// a parse that drops or invents clauses or literals. The pipeline's
/// solver is checked against the parsed formula loaded clause by
/// clause (untimed). Records carry no sat_calls counter on purpose:
/// the ab gate must compare raw wall.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cnf/dimacs.h"
#include "cnf/fastparse.h"
#include "gen/bigfile.h"
#include "obs/metrics.h"
#include "pbo/opb.h"
#include "sat/solver.h"

namespace {

using namespace msu;

/// What a check compares: clauses (or constraints) and tokens.
struct Counts {
  std::int64_t clauses = 0;
  std::int64_t tokens = 0;
  bool operator==(const Counts&) const = default;
};

struct RunOut {
  double secs = 0.0;
  Counts counts;
  std::int64_t clauses = 0;  ///< clauses or constraints (record counter)
  std::int64_t vars = 0;
  std::int64_t memBytes = 0;
};

struct Case {
  std::string name;
  std::int64_t inputBytes = 0;
  std::function<RunOut()> off;
  std::function<RunOut()> on;
  /// What `on` must report; unset = the counts `off` scanned.
  std::optional<Counts> expect;
};

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline bool isSpace(char ch) {
  return ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r' || ch == '\f' ||
         ch == '\v';
}

/// The floor under any parser of these documents: one pass over every
/// byte that counts whitespace-separated tokens and, among them, the
/// one-character `terminator` tokens. A line whose first non-blank byte
/// is `comment` is skipped whole, as the parsers skip it.
Counts rawScan(const char* p, std::size_t size, char comment,
               char terminator) {
  const char* const end = p + size;
  Counts n;
  const char* tok = nullptr;  // start of the token under the cursor
  bool bol = true;            // only blanks so far on this line
  for (; p != end; ++p) {
    const char ch = *p;
    if (isSpace(ch)) {
      if (tok != nullptr) {
        ++n.tokens;
        if (p - tok == 1 && *tok == terminator) ++n.clauses;
        tok = nullptr;
      }
      if (ch == '\n') bol = true;
    } else if (tok == nullptr) {
      if (bol && ch == comment) {
        while (p + 1 != end && p[1] != '\n') ++p;
        continue;
      }
      tok = p;
      bol = false;
    }
  }
  if (tok != nullptr) {
    ++n.tokens;
    if (end - tok == 1 && *tok == terminator) ++n.clauses;
  }
  return n;
}

RunOut scanned(std::chrono::steady_clock::time_point t0, const char* data,
               std::size_t size, char comment, char terminator) {
  const Counts n = rawScan(data, size, comment, terminator);
  return {since(t0), n, n.clauses, 0, 0};
}

std::int64_t literals(const std::vector<Clause>& clauses) {
  std::int64_t n = 0;
  for (const Clause& c : clauses) n += static_cast<std::int64_t>(c.size());
  return n;
}

/// `p cnf V C` (4 tokens), then each clause's literals and its `0`.
RunOut outOfCnf(double secs, const CnfFormula& f) {
  const std::int64_t clauses = f.numClauses();
  return {secs, {clauses, 4 + clauses + literals(f.clauses())}, clauses,
          f.numVars(), f.memBytesEstimate()};
}

/// `p wcnf V C top` (5 tokens), then per clause a weight, its literals
/// and its `0`.
RunOut outOfWcnf(double secs, const WcnfFormula& f) {
  const std::int64_t clauses = f.numHard() + f.numSoft();
  std::int64_t lits = literals(f.hard());
  for (const SoftClause& s : f.soft()) {
    lits += static_cast<std::int64_t>(s.lits.size());
  }
  return {secs, {clauses, 5 + 2 * clauses + lits}, clauses, f.numVars(),
          f.memBytesEstimate()};
}

/// `min:`, a coefficient and a literal per term and `;`; then per
/// constraint its terms, relation, bound and `;`. Exact for documents
/// whose constraints are all inequalities and whose objective has no
/// zero coefficient, as makeBigOpbText's are.
RunOut outOfOpb(double secs, const PboProblem& f) {
  const bool objective = !f.objective.empty();
  const auto constraints = static_cast<std::int64_t>(f.constraints.size());
  Counts n;
  n.clauses = constraints + (objective ? 1 : 0);
  if (objective) {
    n.tokens = 2 + 2 * static_cast<std::int64_t>(f.objective.size());
  }
  for (const PbConstraint& c : f.constraints) {
    n.tokens += 3 + 2 * static_cast<std::int64_t>(c.terms.size());
  }
  return {secs, n, constraints, f.numVars, 0};
}

/// A loaded solver holds no tokens: its check compares clauses only.
RunOut outOfSolver(double secs, const Solver& s) {
  return {secs, {s.numClauses(), 0}, s.numClauses(), s.numVars(),
          s.memBytesEstimate()};
}

/// The pipeline's reference: the parsed formula loaded clause by clause.
Counts loadedClauseByClause(const std::string& cnfText) {
  const CnfFormula f = parseDimacsCnf(cnfText);
  Solver s;
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) break;
  }
  return outOfSolver(0.0, s).counts;
}

std::vector<Case> buildCases(std::int64_t targetBytes,
                             const std::string& tmpDir) {
  BigFileParams p;
  p.target_bytes = targetBytes;
  const auto cnfText = std::make_shared<std::string>(makeBigCnfText(p));
  const auto wcnfText = std::make_shared<std::string>(makeBigWcnfText(p));
  const auto opbText = std::make_shared<std::string>(makeBigOpbText(p));

  const std::string cnfPath = tmpDir + "/bench_parse_big.cnf";
  {
    std::ofstream f(cnfPath, std::ios::binary);
    f.write(cnfText->data(), static_cast<std::streamsize>(cnfText->size()));
  }

  const auto scanOf = [](std::shared_ptr<std::string> text, char comment,
                         char terminator) {
    return [text, comment, terminator] {
      const auto t0 = std::chrono::steady_clock::now();
      return scanned(t0, text->data(), text->size(), comment, terminator);
    };
  };

  std::vector<Case> cases;
  cases.push_back({"parse-cnf", static_cast<std::int64_t>(cnfText->size()),
                   scanOf(cnfText, 'c', '0'),
                   [cnfText] {
                     const auto t0 = std::chrono::steady_clock::now();
                     const CnfFormula f = parseDimacsCnf(*cnfText);
                     return outOfCnf(since(t0), f);
                   },
                   std::nullopt});
  cases.push_back({"parse-wcnf", static_cast<std::int64_t>(wcnfText->size()),
                   scanOf(wcnfText, 'c', '0'),
                   [wcnfText] {
                     const auto t0 = std::chrono::steady_clock::now();
                     const WcnfFormula f = parseDimacsWcnf(*wcnfText);
                     return outOfWcnf(since(t0), f);
                   },
                   std::nullopt});
  cases.push_back({"parse-opb", static_cast<std::int64_t>(opbText->size()),
                   scanOf(opbText, '*', ';'),
                   [opbText] {
                     const auto t0 = std::chrono::steady_clock::now();
                     const PboProblem f = parseOpb(*opbText);
                     return outOfOpb(since(t0), f);
                   },
                   std::nullopt});
  cases.push_back({"file-cnf", static_cast<std::int64_t>(cnfText->size()),
                   [cnfPath] {
                     const auto t0 = std::chrono::steady_clock::now();
                     const InputBuffer buf = InputBuffer::fromFile(cnfPath);
                     return scanned(t0, buf.data(), buf.size(), 'c', '0');
                   },
                   [cnfPath] {
                     const auto t0 = std::chrono::steady_clock::now();
                     const CnfFormula f = loadDimacsCnf(cnfPath);  // mmap
                     return outOfCnf(since(t0), f);
                   },
                   std::nullopt});
  cases.push_back({"pipeline-cnf", static_cast<std::int64_t>(cnfText->size()),
                   scanOf(cnfText, 'c', '0'),
                   [cnfText] {
                     const auto t0 = std::chrono::steady_clock::now();
                     Solver s;
                     static_cast<void>(fastLoadDimacsCnfInto(
                         InputBuffer::borrow(cnfText->data(), cnfText->size()),
                         s));
                     return outOfSolver(since(t0), s);
                   },
                   loadedClauseByClause(*cnfText)});
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  double targetMb = 16.0;
  bool json = false;
  std::string jsonPath = "BENCH_parse.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--target-mb" && i + 1 < argc) {
      targetMb = std::atof(argv[++i]);
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else {
      std::cerr << "usage: bench_parse [--target-mb M] [--reps N] "
                   "[--json [path]]\n";
      return 2;
    }
  }

  const std::string tmpDir = std::filesystem::temp_directory_path().string();
  const auto targetBytes = static_cast<std::int64_t>(targetMb * 1048576.0);
  const std::vector<Case> cases = buildCases(targetBytes, tmpDir);
  std::vector<benchjson::BenchRecord> records;

  std::cout << std::left << std::setw(16) << "case" << std::right
            << std::setw(10) << "MB" << std::setw(11) << "scan[ms]"
            << std::setw(11) << "parse[ms]" << std::setw(10) << "ratio"
            << '\n';

  double logSum = 0.0;
  for (const Case& c : cases) {
    // Scan and parse alternate, so both legs see the same load.
    RunOut best[2];
    for (int r = 0; r < reps; ++r) {
      for (int mode = 0; mode < 2; ++mode) {
        const RunOut out = mode == 0 ? c.off() : c.on();
        if (r == 0 || out.secs < best[mode].secs) best[mode] = out;
      }
    }
    const Counts want = c.expect.value_or(best[0].counts);
    if (best[1].counts != want) {
      std::cerr << c.name << ": parse disagrees with its check (clauses "
                << best[1].counts.clauses << " vs " << want.clauses
                << ", tokens " << best[1].counts.tokens << " vs "
                << want.tokens << ")\n";
      return 1;
    }
    const double ratio = best[0].secs / best[1].secs;
    logSum += std::log(ratio);

    benchjson::BenchRecord scan;
    scan.name = c.name + "/off";
    scan.wallMs = best[0].secs * 1e3;
    scan.reps = reps;
    scan.counters = {
        {"bytes", c.inputBytes},
        {"clauses", best[0].clauses},
        {"tokens", best[0].counts.tokens},
        {"peak_rss_bytes", obs::peakRssBytes()},
    };
    records.push_back(scan);
    benchjson::BenchRecord parse;
    parse.name = c.name + "/on";
    parse.wallMs = best[1].secs * 1e3;
    parse.reps = reps;
    parse.counters = {
        {"bytes", c.inputBytes},
        {"clauses", best[1].clauses},
        {"vars", best[1].vars},
        {"mem_bytes", best[1].memBytes},
        {"peak_rss_bytes", obs::peakRssBytes()},
    };
    records.push_back(parse);

    std::cout << std::left << std::setw(16) << c.name << std::right
              << std::setw(10) << std::fixed << std::setprecision(1)
              << static_cast<double>(c.inputBytes) / 1048576.0
              << std::setw(11) << std::setprecision(2) << best[0].secs * 1e3
              << std::setw(11) << best[1].secs * 1e3 << std::setw(10)
              << std::setprecision(3) << ratio << '\n';
  }

  std::cout << "\ngeomean scan/parse ratio: " << std::setprecision(3)
            << std::exp(logSum / static_cast<double>(cases.size())) << '\n';

  std::remove((tmpDir + "/bench_parse_big.cnf").c_str());

  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "parse", records)) return 1;
    std::cout << "wrote " << jsonPath << '\n';
  }
  return 0;
}
