#include "gen/debug.h"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace msu {

DebugInstance designDebugInstance(const DebugParams& params, bool partial) {
  const RandomCircuitParams& cp = params.circuit;
  if (cp.numInputs < 1 || cp.numGates < 1 || cp.numOutputs < 1 ||
      cp.numOutputs > cp.numInputs + cp.numGates) {
    throw std::invalid_argument(
        "designDebugInstance: the circuit needs at least one input, one "
        "internal gate and between one output and one per gate");
  }
  if (params.numVectors < 1) {
    throw std::invalid_argument(
        "designDebugInstance: numVectors must be positive");
  }
  if (params.numErrors > cp.numGates) {
    throw std::invalid_argument(
        "designDebugInstance: more error sites than internal gates");
  }

  std::mt19937_64 rng(params.seed);
  DebugInstance inst;

  const Circuit correct = randomCircuit(cp);
  const int internalGates = correct.numGates() - correct.numInputs();
  const std::size_t numInputs = static_cast<std::size_t>(correct.numInputs());

  // Pick error sites whose combined effect is observable on sampled
  // vectors; re-draw if sampling never exposes them.
  Circuit faulty;
  std::vector<int> sites;
  std::vector<std::vector<bool>> vectors;
  std::vector<std::vector<bool>> correctOutputs;
  const int numErrors = std::max(params.numErrors, 1);
  constexpr int kLanes = 64;   // vectors per simulateWords() batch
  constexpr int kBatches = 4;  // 256 candidate vectors per attempt
  const auto full = [&] {
    return static_cast<int>(vectors.size()) >= params.numVectors;
  };
  for (int attempt = 0; attempt < 64; ++attempt) {
    sites.clear();
    faulty = correct;
    while (static_cast<int>(sites.size()) < numErrors) {
      const int site =
          correct.numInputs() +
          static_cast<int>(rng() % static_cast<std::uint64_t>(internalGates));
      if (std::find(sites.begin(), sites.end(), site) != sites.end()) {
        continue;
      }
      sites.push_back(site);
      faulty = injectGateError(faulty, site);
    }
    vectors.clear();
    correctOutputs.clear();
    int mismatches = 0;
    // Lane j of a batch is its j-th candidate, drawn input by input
    // after candidate j-1, as drawing one vector at a time would.
    for (int batch = 0; batch < kBatches && !full(); ++batch) {
      const std::mt19937_64 batchStart = rng;
      std::vector<std::uint64_t> in(numInputs, 0);
      for (int j = 0; j < kLanes; ++j) {
        for (std::uint64_t& word : in) word |= (rng() & 1) << j;
      }
      const std::vector<std::uint64_t> good = correct.simulateWords(in);
      const std::vector<std::uint64_t> bad = faulty.simulateWords(in);
      std::uint64_t differ = 0;
      for (int o : correct.outputs()) {
        differ |= good[static_cast<std::size_t>(o)] ^
                  bad[static_cast<std::size_t>(o)];
      }
      int j = 0;
      for (; j < kLanes && !full(); ++j) {
        const bool mismatch = ((differ >> j) & 1) != 0;
        // Prefer exposing vectors; accept matching ones once we have one.
        if (mismatch || mismatches > 0) {
          std::vector<bool> vec(numInputs);
          for (std::size_t i = 0; i < numInputs; ++i) {
            vec[i] = ((in[i] >> j) & 1) != 0;
          }
          std::vector<bool> out;
          out.reserve(correct.outputs().size());
          for (int o : correct.outputs()) {
            out.push_back(((good[static_cast<std::size_t>(o)] >> j) & 1) != 0);
          }
          vectors.push_back(std::move(vec));
          correctOutputs.push_back(std::move(out));
          if (mismatch) ++mismatches;
        }
      }
      // A batch that stops early gives back its unused lanes' draws, so
      // the generator always ends where one vector at a time leaves it.
      if (j < kLanes) {
        rng = batchStart;
        rng.discard(static_cast<unsigned long long>(j) * numInputs);
      }
    }
    if (mismatches > 0) {
      inst.errorGate = sites.front();
      inst.errorGates = sites;
      inst.mismatchVectors = mismatches;
      break;
    }
  }
  if (inst.errorGate < 0) {
    throw std::runtime_error(
        "designDebugInstance: no sampled vector exposed the injected error "
        "in 64 attempts");
  }

  // Encode one copy of the faulty circuit per vector. Gate clauses are
  // collected in a scratch CNF per copy so we can classify them soft.
  WcnfFormula& wcnf = inst.wcnf;
  for (std::size_t t = 0; t < vectors.size(); ++t) {
    CnfFormula scratch;
    std::vector<Var> inputVars;
    std::vector<Lit> ioUnits;
    for (int i = 0; i < faulty.numInputs(); ++i) {
      const Var v = scratch.newVar();
      inputVars.push_back(v);
      ioUnits.push_back(Lit(v, !vectors[t][static_cast<std::size_t>(i)]));
    }
    const int gateClauseStart = scratch.numClauses();
    const std::vector<Var> gv = tseitinEncodeInto(faulty, scratch, inputVars);
    const int gateClauseEnd = scratch.numClauses();
    for (std::size_t o = 0; o < faulty.outputs().size(); ++o) {
      const Var ov = gv[static_cast<std::size_t>(faulty.outputs()[o])];
      ioUnits.push_back(Lit(ov, !correctOutputs[t][o]));
    }

    // Import the scratch clauses with a variable offset.
    const int offset = wcnf.numVars();
    wcnf.ensureVars(offset + scratch.numVars());
    auto shift = [offset](const Clause& c) {
      Clause out;
      out.reserve(c.size());
      for (Lit p : c) out.push_back(Lit(p.var() + offset, p.negative()));
      return out;
    };
    for (int ci = gateClauseStart; ci < gateClauseEnd; ++ci) {
      wcnf.addSoft(shift(scratch.clause(ci)), 1);
    }
    for (Lit u : ioUnits) {
      const Clause unit{Lit(u.var() + offset, u.negative())};
      if (partial) {
        wcnf.addHard(unit);
      } else {
        wcnf.addSoft(unit, 1);
      }
    }
  }
  return inst;
}

}  // namespace msu
