#include "harness/factory.h"

#include <cstdlib>

#include "bnb/bnb_solver.h"
#include "core/binary_search.h"
#include "core/bmo.h"
#include "core/linear_search.h"
#include "core/msu1.h"
#include "core/msu3.h"
#include "core/msu4.h"
#include "core/oll.h"
#include "par/portfolio.h"

namespace msu {

std::vector<std::string> solverNames() {
  return {"msu4-v1", "msu4-v2",   "msu4-tot",   "msu3",   "msu1",
          "oll",     "bmo",       "linear",     "binary", "pbo",
          "maxsatz", "portfolio", "portfolio4"};
}

std::unique_ptr<MaxSatSolver> makeSolver(const std::string& name,
                                         const MaxSatOptions& options) {
  MaxSatOptions o = options;
  if (name == "msu4-v1") {
    o.encoding = CardEncoding::Bdd;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-v2") {
    o.encoding = CardEncoding::Sorter;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-tot") {
    o.encoding = CardEncoding::Totalizer;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu3") {
    o.encoding = CardEncoding::Totalizer;
    return std::make_unique<Msu3Solver>(o);
  }
  if (name == "msu1") {
    return std::make_unique<Msu1Solver>(o);
  }
  if (name == "oll") {
    return std::make_unique<OllSolver>(o);
  }
  if (name == "bmo") {
    return std::make_unique<BmoSolver>(o);
  }
  if (name == "linear") {
    return std::make_unique<LinearSearchSolver>(o);
  }
  if (name == "binary") {
    return std::make_unique<BinarySearchSolver>(o);
  }
  if (name == "pbo") {
    // minisat+ on the PBO formulation (§2.2): BDD bound encodings, and
    // the next bound comes from the blocking-variable objective alone.
    o.encoding = CardEncoding::Bdd;
    o.tightenWithModelCost = false;
    return std::make_unique<LinearSearchSolver>(o, PbEncoding::Bdd);
  }
  if (name == "maxsatz") {
    BnbOptions bo;
    bo.budget = options.budget;
    return std::make_unique<BnbSolver>(bo);
  }
  if (name.rfind("portfolio", 0) == 0) {
    const std::string suffix = name.substr(9);
    if (!suffix.empty() &&
        (suffix.find_first_not_of("0123456789") != std::string::npos ||
         suffix.size() > 3)) {
      return nullptr;  // strict match: "portfolio" or "portfolioN"
    }
    PortfolioOptions po;
    po.base = options;
    po.threads = suffix.empty() ? 4 : std::atoi(suffix.c_str());
    if (po.threads < 1) return nullptr;
    return std::make_unique<PortfolioSolver>(po);
  }
  return nullptr;
}

}  // namespace msu
