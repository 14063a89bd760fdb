#include "core/bmo.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/msu4.h"
#include "core/oll.h"
#include "core/oracle_session.h"
#include "encodings/sink.h"

namespace msu {

namespace {

/// Adds one level's CDCL counters. The levels run one after another, so
/// the memory gauges keep the largest level's reading, not the sum.
void addLevelStats(SolverStats& total, const SolverStats& level) {
  const SolverStats before = total;
  total += level;
  total.mem_bytes = std::max(before.mem_bytes, level.mem_bytes);
  total.mem_arena_bytes =
      std::max(before.mem_arena_bytes, level.mem_arena_bytes);
  total.mem_watch_bytes =
      std::max(before.mem_watch_bytes, level.mem_watch_bytes);
  total.mem_external_bytes =
      std::max(before.mem_external_bytes, level.mem_external_bytes);
}

}  // namespace

std::vector<Weight> bmoStrata(const WcnfFormula& formula) {
  std::map<Weight, Weight> totalByWeight;  // weight -> total at that weight
  for (const SoftClause& sc : formula.soft()) {
    totalByWeight[sc.weight] += sc.weight;
  }
  std::vector<Weight> strata;
  strata.reserve(totalByWeight.size());
  Weight below = 0;  // total weight of all strictly smaller strata
  for (const auto& [weight, total] : totalByWeight) {
    if (weight <= below) return {};  // domination violated
    strata.push_back(weight);
    below += total;
  }
  std::reverse(strata.begin(), strata.end());  // decreasing
  return strata;
}

BmoSolver::BmoSolver(MaxSatOptions options) : opts_(options) {}

std::string BmoSolver::name() const { return "bmo"; }

MaxSatResult BmoSolver::solve(const WcnfFormula& formula) {
  last_strata_ = 0;
  const std::vector<Weight> strata = bmoStrata(formula);
  if (strata.empty() && formula.numSoft() > 0) {
    // Not multilevel: delegate to the weighted-native engine.
    OllSolver fallback(opts_);
    return fallback.solve(formula);
  }
  last_strata_ = static_cast<int>(strata.size());

  // Working formula: original hards + every soft in relaxed hard form
  // `(C_i ∨ b_i)`; per level, the softs are the units `(¬b_i)` of that
  // stratum, and each solved level freezes `sum(b_level) <= optimum`.
  WcnfFormula working(formula.numVars());
  for (const Clause& c : formula.hard()) working.addHard(c);
  std::vector<Lit> blocking;
  blocking.reserve(static_cast<std::size_t>(formula.numSoft()));
  for (const SoftClause& sc : formula.soft()) {
    const Lit b = posLit(working.newVar());
    Clause relaxed = sc.lits;
    relaxed.push_back(b);
    working.addHard(relaxed);
    blocking.push_back(b);
  }

  MaxSatResult result;
  Weight totalCost = 0;
  Assignment lastModel;

  for (const Weight levelWeight : strata) {
    // Per-level unit-weight instance.
    WcnfFormula level = working;
    std::vector<Lit> levelBlocking;
    for (int i = 0; i < formula.numSoft(); ++i) {
      if (formula.soft()[static_cast<std::size_t>(i)].weight == levelWeight) {
        const Lit b = blocking[static_cast<std::size_t>(i)];
        level.addSoft({~b}, 1);
        levelBlocking.push_back(b);
      }
    }
    Msu4Solver engine(opts_);
    const MaxSatResult levelResult = engine.solve(level);
    result.iterations += levelResult.iterations;
    result.coresFound += levelResult.coresFound;
    result.satCalls += levelResult.satCalls;
    addLevelStats(result.satStats, levelResult.satStats);
    if (levelResult.status == MaxSatStatus::UnsatisfiableHard) {
      result.status = MaxSatStatus::UnsatisfiableHard;
      return result;
    }
    if (levelResult.status != MaxSatStatus::Optimum) {
      result.status = MaxSatStatus::Unknown;
      result.lowerBound = totalCost + levelWeight * levelResult.lowerBound;
      result.upperBound = formula.totalSoftWeight();
      return result;
    }
    totalCost += levelWeight * levelResult.cost;
    lastModel = levelResult.model;
    // Freeze this level's optimum before descending.
    WcnfHardSink sink(working);
    encodeAtMost(sink, levelBlocking, static_cast<int>(levelResult.cost),
                 opts_.encoding);
  }

  result.status = MaxSatStatus::Optimum;
  result.cost = totalCost;
  result.lowerBound = totalCost;
  result.upperBound = totalCost;
  // Restrict the last level's model to the original variables; with no
  // soft clauses at all there was no level and any hard model works.
  if (!strata.empty()) {
    lastModel.resize(static_cast<std::size_t>(formula.numVars()));
    result.model = std::move(lastModel);
    const std::optional<Weight> check = formula.cost(result.model);
    assert(check.has_value() && *check == totalCost);
    static_cast<void>(check);
  } else {
    // No softs: any model of the hards is optimal (cost 0).
    OracleSession session(opts_);
    session.addHards(formula);
    const lbool st = session.okay() ? session.solve() : lbool::False;
    session.exportStats(result);
    if (st == lbool::False) {
      result.status = MaxSatStatus::UnsatisfiableHard;
      return result;
    }
    if (st == lbool::Undef) {
      result.status = MaxSatStatus::Unknown;
      return result;
    }
    Assignment model(static_cast<std::size_t>(formula.numVars()));
    for (Var v = 0; v < formula.numVars(); ++v) {
      model[static_cast<std::size_t>(v)] =
          session.sat().model()[static_cast<std::size_t>(v)];
    }
    result.model = std::move(model);
  }
  return result;
}

}  // namespace msu
