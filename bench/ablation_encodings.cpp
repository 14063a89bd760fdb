/// \file ablation_encodings.cpp
/// \brief Ablation beyond the paper's figures: msu4 with each of its
///        three cardinality encodings, the paper's BDD (v1) and sorting
///        network (v2) and the totalizer (msu4-tot; §5 calls
///        "alternative encodings of cardinality constraints" an area
///        for improvement). Exits 1 when two encodings disagree on an
///        optimum.
///
/// Usage: ablation_encodings [timeout_seconds] [size_scale] [per_family]

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
  sp.sizeScale = argc > 2 ? std::atof(argv[2]) : 0.5;
  sp.perFamily = argc > 3 ? std::atoi(argv[3]) : 6;

  const std::vector<Instance> suite = buildMixedSuite(sp);
  std::cout << "msu4 cardinality-encoding ablation, " << suite.size()
            << " instances, timeout " << config.timeoutSeconds << " s\n\n";

  const std::vector<std::string> solvers{"msu4-v1", "msu4-v2", "msu4-tot"};
  const std::vector<RunRecord> records = runMatrix(solvers, suite, config);
  printAbortedTable(std::cout, records, solvers,
                    "msu4 by cardinality encoding (v1=bdd, v2=sorter)");
  printFamilyBreakdown(std::cout, records, solvers);

  const int bad = crossCheckOptima(records, std::cerr);
  return bad > 0 ? 1 : 0;
}
