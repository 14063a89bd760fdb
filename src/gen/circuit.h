/// \file circuit.h
/// \brief Combinational circuits: representation, random generation,
///        simulation, semantics-preserving rewriting and Tseitin CNF
///        encoding. These are the building blocks for the EDA-style
///        instance families (equivalence-checking miters, BMC
///        unrollings, design-debugging instances) that substitute for
///        the paper's proprietary industrial suite.

#pragma once

#include <cstdint>
#include <vector>

#include "cnf/formula.h"

namespace msu {

/// Gate kinds. `Input` gates have no fanin.
enum class GateType : std::uint8_t {
  Input,
  And,
  Or,
  Xor,
  Nand,
  Nor,
  Not,
  Buf,
};

/// Short name ("AND", ...).
[[nodiscard]] const char* toString(GateType t);

/// A gate: a type plus fanin gate ids (indices into Circuit::gates).
struct Gate {
  GateType type = GateType::Input;
  std::vector<int> fanin;
};

/// A combinational circuit as a topologically ordered gate list: gate
/// `i` only references gates `< i`; the first `numInputs` gates are the
/// primary inputs.
class Circuit {
 public:
  Circuit() = default;

  /// Creates a circuit with `numInputs` primary inputs.
  explicit Circuit(int numInputs);

  [[nodiscard]] int numInputs() const { return num_inputs_; }
  [[nodiscard]] int numGates() const { return static_cast<int>(gates_.size()); }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const Gate& gate(int i) const {
    return gates_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::vector<int>& outputs() const { return outputs_; }

  /// Appends a gate; fanins must reference existing gates. Returns id.
  int addGate(GateType type, std::vector<int> fanin);

  /// Marks gate `id` as a primary output.
  void addOutput(int id) { outputs_.push_back(id); }

  /// Replaces the output list.
  void setOutputs(std::vector<int> outs) { outputs_ = std::move(outs); }

  /// Simulates 64 input vectors in one pass over the gates. Bit `j` of
  /// every word is lane `j`, i.e. vector `j`: `inputs[i]` holds primary
  /// input `i` of all 64 vectors, and entry `g` of the result holds gate
  /// `g`'s value in each of them. A caller with fewer vectors ignores
  /// the spare lanes. This is the only simulation kernel; the
  /// single-vector calls below run it on lane 0.
  [[nodiscard]] std::vector<std::uint64_t> simulateWords(
      const std::vector<std::uint64_t>& inputs) const;

  /// Simulates one vector: returns the value of every gate.
  [[nodiscard]] std::vector<bool> simulate(
      const std::vector<bool>& inputs) const;

  /// Simulates one vector and returns only the primary output values.
  [[nodiscard]] std::vector<bool> evaluate(
      const std::vector<bool>& inputs) const;

 private:
  int num_inputs_ = 0;
  std::vector<Gate> gates_;
  std::vector<int> outputs_;
};

/// Parameters of the random circuit generator.
struct RandomCircuitParams {
  int numInputs = 8;
  int numGates = 60;     ///< internal gates (excluding inputs)
  int numOutputs = 2;
  int maxFanin = 3;      ///< for AND/OR/NAND/NOR gates
  std::uint64_t seed = 1;
};

/// Generates a random combinational DAG with mixed gate types; fanins
/// are biased toward recent gates so depth grows realistically.
[[nodiscard]] Circuit randomCircuit(const RandomCircuitParams& params);

/// Result of a Tseitin encoding: the CNF plus the variable of each gate.
struct TseitinResult {
  CnfFormula cnf;
  std::vector<Var> gateVar;  ///< gate id -> CNF variable
};

/// Tseitin-encodes the circuit into CNF (fresh variables starting at 0).
/// No output constraint is added; callers assert output literals.
[[nodiscard]] TseitinResult tseitinEncode(const Circuit& circuit);

/// Tseitin-encodes into an existing formula, mapping circuit inputs to
/// the given variables (enables sharing inputs across circuit copies).
[[nodiscard]] std::vector<Var> tseitinEncodeInto(const Circuit& circuit,
                                                 CnfFormula& cnf,
                                                 const std::vector<Var>&
                                                     inputVars);

/// Semantics-preserving rewrite: applies De Morgan transformations and
/// double-negation insertions driven by `seed`, yielding a structurally
/// different but functionally identical circuit (the "optimized design"
/// side of an equivalence-checking miter).
[[nodiscard]] Circuit rewriteCircuit(const Circuit& circuit,
                                     std::uint64_t seed);

/// Error injection for design debugging: returns a copy with one gate's
/// type replaced (e.g. AND -> OR). `gateId` must be an internal gate.
[[nodiscard]] Circuit injectGateError(const Circuit& circuit, int gateId);

/// Appends `other`'s internal gates to `base` (the two must have the
/// same number of inputs, which are shared). Returns the mapping from
/// `other` gate ids to `base` gate ids. `base`'s outputs are untouched.
std::vector<int> appendCircuit(Circuit& base, const Circuit& other);

}  // namespace msu
