#include "gen/circuit.h"

#include <cassert>
#include <random>

namespace msu {

const char* toString(GateType t) {
  switch (t) {
    case GateType::Input:
      return "INPUT";
    case GateType::And:
      return "AND";
    case GateType::Or:
      return "OR";
    case GateType::Xor:
      return "XOR";
    case GateType::Nand:
      return "NAND";
    case GateType::Nor:
      return "NOR";
    case GateType::Not:
      return "NOT";
    case GateType::Buf:
      return "BUF";
  }
  return "?";
}

Circuit::Circuit(int numInputs) : num_inputs_(numInputs) {
  gates_.resize(static_cast<std::size_t>(numInputs));
}

int Circuit::addGate(GateType type, std::vector<int> fanin) {
  assert(type != GateType::Input);
  const int id = numGates();
  for ([[maybe_unused]] int f : fanin) assert(f >= 0 && f < id);
  assert(!fanin.empty());
  if (type == GateType::Not || type == GateType::Buf) {
    assert(fanin.size() == 1);
  }
  gates_.push_back(Gate{type, std::move(fanin)});
  return id;
}

std::vector<std::uint64_t> Circuit::simulateWords(
    const std::vector<std::uint64_t>& inputs) const {
  assert(static_cast<int>(inputs.size()) == num_inputs_);
  std::vector<std::uint64_t> value(inputs);
  value.resize(gates_.size());
  for (std::size_t g = static_cast<std::size_t>(num_inputs_);
       g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    std::uint64_t v = 0;
    switch (gate.type) {
      case GateType::Input:
        break;
      case GateType::And:
      case GateType::Nand:
        v = ~std::uint64_t{0};
        for (int f : gate.fanin) v &= value[static_cast<std::size_t>(f)];
        break;
      case GateType::Or:
      case GateType::Nor:
        for (int f : gate.fanin) v |= value[static_cast<std::size_t>(f)];
        break;
      case GateType::Xor:
        for (int f : gate.fanin) v ^= value[static_cast<std::size_t>(f)];
        break;
      case GateType::Not:
      case GateType::Buf:
        v = value[static_cast<std::size_t>(gate.fanin[0])];
        break;
    }
    if (gate.type == GateType::Nand || gate.type == GateType::Nor ||
        gate.type == GateType::Not) {
      v = ~v;
    }
    value[g] = v;
  }
  return value;
}

std::vector<bool> Circuit::simulate(const std::vector<bool>& inputs) const {
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) words[i] = inputs[i] ? 1 : 0;
  const std::vector<std::uint64_t> value = simulateWords(words);
  std::vector<bool> lane0(value.size());
  for (std::size_t g = 0; g < value.size(); ++g) {
    lane0[g] = (value[g] & 1) != 0;
  }
  return lane0;
}

std::vector<bool> Circuit::evaluate(const std::vector<bool>& inputs) const {
  const std::vector<bool> value = simulate(inputs);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (int o : outputs_) out.push_back(value[static_cast<std::size_t>(o)]);
  return out;
}

Circuit randomCircuit(const RandomCircuitParams& params) {
  Circuit c(params.numInputs);
  std::mt19937_64 rng(params.seed);
  const GateType kinds[] = {GateType::And, GateType::Or,   GateType::Xor,
                            GateType::Nand, GateType::Nor, GateType::Not};
  for (int g = 0; g < params.numGates; ++g) {
    const GateType t = kinds[rng() % std::size(kinds)];
    const int avail = c.numGates();
    int fanin = 2;
    if (t == GateType::Not) {
      fanin = 1;
    } else if (t != GateType::Xor && params.maxFanin > 2) {
      fanin = 2 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             params.maxFanin - 1));
    }
    std::vector<int> ins;
    for (int i = 0; i < fanin; ++i) {
      // Bias toward recent gates: choose from the last half when possible.
      const int lo = (rng() % 4 != 0 && avail > 2) ? avail / 2 : 0;
      const int pick =
          lo + static_cast<int>(rng() % static_cast<std::uint64_t>(avail - lo));
      ins.push_back(pick);
    }
    c.addGate(t, std::move(ins));
  }
  // Outputs: the last few gates (most downstream logic).
  std::vector<int> outs;
  for (int i = 0; i < params.numOutputs; ++i) {
    outs.push_back(c.numGates() - 1 - i);
  }
  c.setOutputs(std::move(outs));
  return c;
}

namespace {

/// Emits the Tseitin clauses of one gate given fanin/output variables.
void encodeGate(CnfFormula& cnf, const Gate& gate, Var out,
                const std::vector<Var>& faninVars) {
  const Lit g = posLit(out);
  switch (gate.type) {
    case GateType::Input:
      return;
    case GateType::And:
    case GateType::Nand: {
      const Lit o = gate.type == GateType::And ? g : ~g;
      // o <-> AND(fanins)
      Clause all;
      for (Var f : faninVars) {
        cnf.addClause({~o, posLit(f)});
        all.push_back(negLit(f));
      }
      all.push_back(o);
      cnf.addClause(std::move(all));
      return;
    }
    case GateType::Or:
    case GateType::Nor: {
      const Lit o = gate.type == GateType::Or ? g : ~g;
      // o <-> OR(fanins)
      Clause all;
      for (Var f : faninVars) {
        cnf.addClause({o, negLit(f)});
        all.push_back(posLit(f));
      }
      all.push_back(~o);
      cnf.addClause(std::move(all));
      return;
    }
    case GateType::Xor: {
      assert(faninVars.size() == 2);
      const Lit a = posLit(faninVars[0]);
      const Lit b = posLit(faninVars[1]);
      cnf.addClause({~g, a, b});
      cnf.addClause({~g, ~a, ~b});
      cnf.addClause({g, ~a, b});
      cnf.addClause({g, a, ~b});
      return;
    }
    case GateType::Not: {
      const Lit a = posLit(faninVars[0]);
      cnf.addClause({~g, ~a});
      cnf.addClause({g, a});
      return;
    }
    case GateType::Buf: {
      const Lit a = posLit(faninVars[0]);
      cnf.addClause({~g, a});
      cnf.addClause({g, ~a});
      return;
    }
  }
}

}  // namespace

std::vector<Var> tseitinEncodeInto(const Circuit& circuit, CnfFormula& cnf,
                                   const std::vector<Var>& inputVars) {
  assert(static_cast<int>(inputVars.size()) == circuit.numInputs());
  std::vector<Var> gateVar(static_cast<std::size_t>(circuit.numGates()),
                           kUndefVar);
  for (int i = 0; i < circuit.numInputs(); ++i) {
    gateVar[static_cast<std::size_t>(i)] =
        inputVars[static_cast<std::size_t>(i)];
  }
  std::vector<Var> fanin;
  for (int g = circuit.numInputs(); g < circuit.numGates(); ++g) {
    const Gate& gate = circuit.gate(g);
    const Var out = cnf.newVar();
    gateVar[static_cast<std::size_t>(g)] = out;
    fanin.clear();
    for (int f : gate.fanin) {
      fanin.push_back(gateVar[static_cast<std::size_t>(f)]);
    }
    encodeGate(cnf, gate, out, fanin);
  }
  return gateVar;
}

TseitinResult tseitinEncode(const Circuit& circuit) {
  TseitinResult result;
  std::vector<Var> inputVars;
  inputVars.reserve(static_cast<std::size_t>(circuit.numInputs()));
  for (int i = 0; i < circuit.numInputs(); ++i) {
    inputVars.push_back(result.cnf.newVar());
  }
  result.gateVar = tseitinEncodeInto(circuit, result.cnf, inputVars);
  return result;
}

Circuit rewriteCircuit(const Circuit& circuit, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Circuit out(circuit.numInputs());
  // old gate id -> new gate id computing the same function.
  std::vector<int> remap(static_cast<std::size_t>(circuit.numGates()), -1);
  for (int i = 0; i < circuit.numInputs(); ++i) {
    remap[static_cast<std::size_t>(i)] = i;
  }
  for (int g = circuit.numInputs(); g < circuit.numGates(); ++g) {
    const Gate& gate = circuit.gate(g);
    std::vector<int> ins;
    ins.reserve(gate.fanin.size());
    for (int f : gate.fanin) ins.push_back(remap[static_cast<std::size_t>(f)]);
    // Occasionally permute fanins (harmless for symmetric gates).
    if (ins.size() >= 2 && rng() % 2 == 0) std::swap(ins[0], ins[1]);

    int id;
    const bool demorgan = rng() % 3 == 0;
    if (demorgan && gate.type == GateType::And) {
      // AND(a,b,..) == NOT(OR(NOT a, NOT b, ..))
      std::vector<int> negs;
      for (int f : ins) negs.push_back(out.addGate(GateType::Not, {f}));
      id = out.addGate(GateType::Not,
                       {out.addGate(GateType::Or, std::move(negs))});
    } else if (demorgan && gate.type == GateType::Or) {
      std::vector<int> negs;
      for (int f : ins) negs.push_back(out.addGate(GateType::Not, {f}));
      id = out.addGate(GateType::Not,
                       {out.addGate(GateType::And, std::move(negs))});
    } else if (demorgan && gate.type == GateType::Nand) {
      std::vector<int> negs;
      for (int f : ins) negs.push_back(out.addGate(GateType::Not, {f}));
      id = out.addGate(GateType::Or, std::move(negs));
    } else if (demorgan && gate.type == GateType::Nor) {
      std::vector<int> negs;
      for (int f : ins) negs.push_back(out.addGate(GateType::Not, {f}));
      id = out.addGate(GateType::And, std::move(negs));
    } else {
      id = out.addGate(gate.type, std::move(ins));
    }
    // Occasionally insert a double negation on the result.
    if (rng() % 5 == 0) {
      id = out.addGate(GateType::Not, {out.addGate(GateType::Not, {id})});
    }
    remap[static_cast<std::size_t>(g)] = id;
  }
  std::vector<int> outs;
  for (int o : circuit.outputs()) {
    outs.push_back(remap[static_cast<std::size_t>(o)]);
  }
  out.setOutputs(std::move(outs));
  return out;
}

std::vector<int> appendCircuit(Circuit& base, const Circuit& other) {
  assert(base.numInputs() == other.numInputs());
  std::vector<int> remap(static_cast<std::size_t>(other.numGates()), -1);
  for (int i = 0; i < other.numInputs(); ++i) {
    remap[static_cast<std::size_t>(i)] = i;
  }
  for (int g = other.numInputs(); g < other.numGates(); ++g) {
    const Gate& gate = other.gate(g);
    std::vector<int> ins;
    ins.reserve(gate.fanin.size());
    for (int f : gate.fanin) ins.push_back(remap[static_cast<std::size_t>(f)]);
    remap[static_cast<std::size_t>(g)] =
        base.addGate(gate.type, std::move(ins));
  }
  return remap;
}

Circuit injectGateError(const Circuit& circuit, int gateId) {
  assert(gateId >= circuit.numInputs() && gateId < circuit.numGates());
  // Rebuild with the chosen gate's type flipped to a different function.
  Circuit fresh(circuit.numInputs());
  for (int g = circuit.numInputs(); g < circuit.numGates(); ++g) {
    Gate gate = circuit.gate(g);
    if (g == gateId) {
      switch (gate.type) {
        case GateType::And:
          gate.type = GateType::Or;
          break;
        case GateType::Or:
          gate.type = GateType::And;
          break;
        case GateType::Xor:
          gate.type = GateType::Or;
          break;
        case GateType::Nand:
          gate.type = GateType::Nor;
          break;
        case GateType::Nor:
          gate.type = GateType::Nand;
          break;
        case GateType::Not:
          gate.type = GateType::Buf;
          break;
        case GateType::Buf:
          gate.type = GateType::Not;
          break;
        case GateType::Input:
          break;
      }
    }
    fresh.addGate(gate.type, gate.fanin);
  }
  fresh.setOutputs(circuit.outputs());
  return fresh;
}

}  // namespace msu
