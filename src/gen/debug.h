/// \file debug.h
/// \brief Design-debugging MaxSAT instances in the style of Safarpour et
///        al. (FMCAD'07), the application motivating the paper: a
///        circuit with an injected gate error is constrained by
///        input/output vectors from the correct design. The constraints
///        are inconsistent, and maximum satisfiability points at the
///        erroneous gate (minimum number of gate clauses to give up).

#pragma once

#include <cstdint>

#include "cnf/wcnf.h"
#include "gen/circuit.h"

namespace msu {

/// Parameters of a design-debugging instance.
struct DebugParams {
  RandomCircuitParams circuit;  ///< the correct design
  int numVectors = 4;           ///< I/O vectors (at least one exposes a bug)
  int numErrors = 1;            ///< injected gate errors (distinct sites)
  std::uint64_t seed = 1;       ///< error-site + vector sampling seed
};

/// A generated design-debugging instance.
struct DebugInstance {
  WcnfFormula wcnf;        ///< hard I/O constraints + soft gate clauses
  int errorGate = -1;      ///< the first injected error site (ground truth)
  std::vector<int> errorGates;  ///< all injected sites
  int mismatchVectors = 0; ///< vectors on which faulty != correct
};

/// Builds a design-debugging instance.
///
/// Up to 64 attempts each draw distinct error sites, then sample up to
/// 256 random input vectors until `numVectors` are accepted: vectors
/// are taken once one shows the error on an output, and the first
/// attempt that exposes it wins. Vectors are drawn and simulated 64 at
/// a time (Circuit::simulateWords, lane j = the batch's j-th try), in
/// the generator order of one try after another, each try drawing its
/// inputs in order. A batch that stops early restores the generator to
/// its start and skips only the used tries' draws, so the instance and
/// the generator's end state are those of sampling one vector at a
/// time.
///
/// For each vector, a fresh CNF copy of the *faulty* circuit is
/// constrained (hard) to the correct design's input/output behaviour;
/// the gate-function clauses are soft. With `partial == false` the
/// I/O constraints are soft too (plain MaxSAT, as evaluated in the
/// paper's Table 2).
///
/// Throws std::invalid_argument when the circuit has no input, no
/// internal gate, no output or more outputs than gates, when
/// `numVectors < 1`, or when `numErrors` exceeds the internal gates;
/// throws std::runtime_error when no attempt exposes the error.
[[nodiscard]] DebugInstance designDebugInstance(const DebugParams& params,
                                                bool partial = true);

}  // namespace msu
