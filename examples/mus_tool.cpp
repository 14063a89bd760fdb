/// \file mus_tool.cpp
/// \brief MUS/MCS analysis of an unsatisfiable formula — the §2.3
///        relationship between unsatisfiable cores and MaxSAT, run both
///        directions on one instance:
///          * extract a single MUS and report its size and SAT calls;
///          * enumerate all MCSes, read the MaxSAT optimum off the
///            smallest one, and cross-check with msu4;
///          * recover all MUSes as minimal hitting sets of the MCSes.
///
/// Usage: mus_tool [file.cnf | file.gcnf]
///        (default: a built-in pigeonhole mix; .gcnf files get group-MUS
///        analysis instead of the clause-level pipeline)
///
/// Checks itself: exits 1 when an extracted or enumerated MUS fails
/// isMus, or when the smallest MCS disagrees with msu4-v2's optimum;
/// exits 2 on unreadable input.

#include <iostream>

#include <fstream>
#include <string>

#include "cnf/dimacs.h"
#include "gen/pigeonhole.h"
#include "harness/factory.h"
#include "mus/gcnf_io.h"
#include "mus/mcs.h"
#include "mus/mus.h"

namespace {

int runGroupMode(const char* path) {
  using namespace msu;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  GroupCnf gcnf;
  try {
    gcnf = readGcnf(in);
  } catch (const GcnfError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 2;
  }
  std::cout << "group instance: " << gcnf.numVars() << " vars, "
            << gcnf.background().size() << " background clauses, "
            << gcnf.numGroups() << " groups\n\n";
  const MusResult r = extractMus(gcnf);
  if (!r.minimal && r.groups.empty()) {
    std::cout << "  satisfiable\n";
    return 0;
  }
  std::cout << "  group MUS of " << r.size() << "/" << gcnf.numGroups()
            << " groups in " << r.satCalls << " SAT calls {";
  for (std::size_t i = 0; i < r.groups.size(); ++i) {
    std::cout << (i ? "," : "") << r.groups[i];
  }
  const bool verified = isMus(gcnf, r.groups);
  std::cout << "} verified=" << (verified ? "yes" : "NO") << "\n";
  return verified || !r.minimal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  if (argc > 1) {
    const std::string path = argv[1];
    if (path.size() > 5 && path.substr(path.size() - 5) == ".gcnf") {
      return runGroupMode(argv[1]);
    }
  }

  CnfFormula cnf;
  if (argc > 1) {
    try {
      cnf = loadDimacsCnf(argv[1]);
    } catch (const DimacsError& e) {
      std::cerr << "cannot load " << argv[1] << ": " << e.what() << "\n";
      return 2;
    }
  } else {
    // PHP(4,3) with a couple of satisfiable padding clauses: the MUS is
    // the pigeonhole kernel, the padding never appears in any MUS.
    cnf = pigeonhole(4, 3);
    const Var a = cnf.newVar();
    const Var b = cnf.newVar();
    cnf.addClause({posLit(a), posLit(b)});
    cnf.addClause({negLit(a), posLit(b)});
  }
  std::cout << "instance: " << cnf.summary() << "\n\n";

  std::cout << "-- single MUS extraction --\n";
  const GroupCnf perClause = GroupCnf::perClause(cnf);
  const MusResult r = extractMus(perClause);
  if (!r.minimal && r.groups.empty()) {
    std::cout << "  formula is satisfiable\n";
    return 0;
  }
  bool ok = !r.minimal || isMus(perClause, r.groups);
  std::cout << "  size " << r.size() << ", " << r.satCalls << " SAT calls, "
            << r.rotationCriticals << " rotation hits, minimal="
            << (r.minimal ? "yes" : "budget-expired")
            << (ok ? "" : ", NOT a MUS") << "\n";

  std::cout << "\n-- MCS enumeration --\n";
  McsOptions mopts;
  mopts.maxCount = 64;
  const McsResult mcses = enumerateMcses(cnf, mopts);
  std::cout << "  " << mcses.mcses.size() << " MCS(es)"
            << (mcses.complete ? " (exhaustive)" : " (capped)") << ", "
            << mcses.satCalls << " SAT calls\n";
  if (!mcses.mcses.empty()) {
    std::cout << "  smallest MCS size = " << mcses.minSize()
              << "  == MaxSAT optimum cost";
    const auto solver = makeSolver("msu4-v2");
    const MaxSatResult opt = solver->solve(WcnfFormula::allSoft(cnf));
    const bool agree = opt.status == MaxSatStatus::Optimum &&
                       opt.cost == mcses.minSize();
    ok = ok && agree;
    std::cout << " (msu4 says " << opt.cost << ": "
              << (agree ? "agree" : "DISAGREE") << ")\n";
  }

  if (mcses.complete) {
    std::cout << "\n-- all MUSes (hitting-set duality) --\n";
    const AllMusesResult all = enumerateAllMuses(cnf, mopts);
    std::cout << "  " << all.muses.size() << " MUS(es)\n";
    for (std::size_t i = 0; i < all.muses.size(); ++i) {
      const bool verified = isMus(perClause, all.muses[i]);
      ok = ok && verified;
      if (i >= 8 && verified) continue;
      std::cout << "  mus[" << i << "] = {";
      for (std::size_t j = 0; j < all.muses[i].size(); ++j) {
        std::cout << (j ? "," : "") << all.muses[i][j];
      }
      std::cout << "}  verified=" << (verified ? "yes" : "NO") << "\n";
    }
  }
  return ok ? 0 : 1;
}
