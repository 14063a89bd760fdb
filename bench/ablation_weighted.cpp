/// \file ablation_weighted.cpp
/// \brief Weighted-MaxSAT engine ablation (beyond the paper's unweighted
///        evaluation; §5's "further development" of the msu family):
///        native weighted core-guided search (oll), lexicographic
///        optimization over weight strata (bmo), Fu-Malik with weight
///        splitting (msu1), linear search with the true-cost bound
///        (linear) and with the blocking-variable bound (pbo), both over
///        the PB BDD, and msu4 through weight duplication, on weighted
///        scheduling / max-cut / coloring suites. Exits 1 when two
///        engines disagree on an optimum.
///
/// Usage: ablation_weighted [timeout_seconds] [per_family]

#include <cstdlib>
#include <iostream>

#include "harness/runner.h"
#include "harness/suite.h"
#include "harness/tables.h"

int main(int argc, char** argv) {
  using namespace msu;

  RunConfig config;
  config.timeoutSeconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  SuiteParams sp;
  sp.perFamily = argc > 2 ? std::atoi(argv[2]) : 6;

  const std::vector<Instance> suite = buildWeightedSuite(sp);
  std::cout << "weighted-engine ablation, " << suite.size()
            << " instances, timeout " << config.timeoutSeconds << " s\n\n";

  const std::vector<std::string> solvers{"oll",    "bmo", "msu1",
                                         "linear", "pbo", "msu4-v2"};
  const std::vector<RunRecord> records = runMatrix(solvers, suite, config);
  printAbortedTable(std::cout, records, solvers,
                    "Weighted engines (msu4-v2 = duplication reduction)");
  printFamilyBreakdown(std::cout, records, solvers);

  const int bad = crossCheckOptima(records, std::cerr);
  return bad > 0 ? 1 : 0;
}
