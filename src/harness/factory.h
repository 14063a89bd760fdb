/// \file factory.h
/// \brief Name-based construction of every MaxSAT engine in the library,
///        used by the CLI example and the experiment harness. Names map
///        to the columns of the paper's tables: "maxsatz" (our B&B),
///        "pbo" (linear search on the PBO formulation), "msu4-v1",
///        "msu4-v2".

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/maxsat.h"

namespace msu {

/// All engine names accepted by makeSolver().
[[nodiscard]] std::vector<std::string> solverNames();

/// Creates an engine by name; nullptr for unknown names.
///
/// Names: "msu4-v1", "msu4-v2", "msu4-tot", "msu3", "msu1", "oll",
/// "bmo", "linear", "binary", "pbo", "maxsatz", plus the parallel
/// portfolio as "portfolio" (default thread count) or "portfolioN"
/// (e.g. "portfolio4": N racing workers). msu4-v1 bounds with a BDD
/// and msu4-v2 with a sorting network, as in the paper; msu4-tot is
/// msu4 over the totalizer that msu3 grows. "pbo" is "linear" with BDD
/// encodings and the paper's blocking-variable bound
/// (`tightenWithModelCost = false`). `options.budget` applies to
/// every engine; the cardinality-encoding option is overridden by
/// names that pin one (msu4-*, msu3, pbo).
[[nodiscard]] std::unique_ptr<MaxSatSolver> makeSolver(
    const std::string& name, const MaxSatOptions& options = {});

}  // namespace msu
