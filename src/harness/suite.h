/// \file suite.h
/// \brief Builds the benchmark suites that substitute for the paper's
///        691 industrial unsatisfiable instances (see DESIGN.md §4):
///        equivalence-checking miters, BMC unrollings, design-debugging
///        instances, over-constrained random 3-SAT and pigeonhole
///        controls. Every instance is an unsatisfiable plain-MaxSAT or
///        partial-MaxSAT WCNF.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnf/wcnf.h"

namespace msu {

/// One benchmark instance.
struct Instance {
  std::string name;    ///< unique, e.g. "eq-miter-03"
  std::string family;  ///< "equivalence", "bmc", "debug", "random", "php"
  WcnfFormula wcnf;
};

/// Scaling knobs for the generated suites.
struct SuiteParams {
  /// Multiplies instance sizes (1 = CI-friendly defaults).
  double sizeScale = 1.0;
  /// Instances per family. A debugging design whose injected error no
  /// sampled vector exposes gives no instance, so the debug family can
  /// come out short (buildDebugSuite at size 1 has no debug-09).
  int perFamily = 8;
  std::uint64_t seed = 20080310;  // DATE'08 week, for flavour
};

/// The mixed industrial-style suite used by Table 1 and Figures 1-3.
[[nodiscard]] std::vector<Instance> buildMixedSuite(const SuiteParams& params);

/// The design-debugging suite used by Table 2 (plain MaxSAT, as in the
/// paper's evaluation of [24]-style instances).
[[nodiscard]] std::vector<Instance> buildDebugSuite(const SuiteParams& params);

/// Weighted partial-MaxSAT suite (timetabling, weighted max-cut, graph
/// coloring) exercising the weighted-native engines — beyond the paper's
/// unweighted evaluation, used by `bench/ablation_weighted`.
[[nodiscard]] std::vector<Instance> buildWeightedSuite(
    const SuiteParams& params);

}  // namespace msu
