/// \file micro_mus.cpp
/// \brief google-benchmark microbenchmarks for the MUS/MCS module and
///        the proof pipeline: MUS extraction on pigeonhole and random
///        unsat inputs, model rotation off/on, MCS enumeration, and DRUP
///        trace + RUP check overhead on refutations.

#include <benchmark/benchmark.h>

#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "mus/mcs.h"
#include "mus/mus.h"
#include "proof/checker.h"
#include "proof/drup.h"
#include "sat/solver.h"

namespace {

using namespace msu;

void BM_MusDeletionPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const GroupCnf f = GroupCnf::perClause(pigeonhole(holes + 1, holes));
  for (auto _ : state) {
    const MusResult r = extractMus(f);
    benchmark::DoNotOptimize(r.groups.data());
  }
  state.counters["clauses"] = static_cast<double>(f.numGroups());
}
BENCHMARK(BM_MusDeletionPigeonhole)->Arg(3)->Arg(4)->Arg(5);

void BM_MusDeletionRandom(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const GroupCnf f = GroupCnf::perClause(randomUnsat3Sat(vars, 7.0, 11));
  for (auto _ : state) {
    const MusResult r = extractMus(f);
    benchmark::DoNotOptimize(r.groups.data());
  }
}
BENCHMARK(BM_MusDeletionRandom)->Arg(15)->Arg(25)->Arg(35);

void BM_ModelRotationOnOff(benchmark::State& state) {
  const bool rotation = state.range(0) != 0;
  const GroupCnf f = GroupCnf::perClause(pigeonhole(5, 4));
  MusOptions opts;
  opts.modelRotation = rotation;
  std::int64_t calls = 0;
  for (auto _ : state) {
    const MusResult r = extractMus(f, opts);
    calls = r.satCalls;
    benchmark::DoNotOptimize(r.groups.data());
  }
  state.counters["sat_calls"] = static_cast<double>(calls);
}
BENCHMARK(BM_ModelRotationOnOff)->Arg(0)->Arg(1);

void BM_McsEnumeration(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const CnfFormula f = randomUnsat3Sat(vars, 6.5, 3);
  McsOptions opts;
  opts.maxCount = 32;
  for (auto _ : state) {
    const McsResult r = enumerateMcses(f, opts);
    benchmark::DoNotOptimize(r.mcses.data());
  }
}
BENCHMARK(BM_McsEnumeration)->Arg(8)->Arg(10)->Arg(12);

void BM_SolveWithAndWithoutTracing(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const CnfFormula f = pigeonhole(6, 5);
  for (auto _ : state) {
    InMemoryProof proof;
    Solver::Options opts;
    if (traced) opts.tracer = &proof;
    Solver solver(opts);
    for (Var v = 0; v < f.numVars(); ++v) {
      benchmark::DoNotOptimize(solver.newVar());
    }
    for (const Clause& c : f.clauses()) {
      if (!solver.addClause(c)) break;
    }
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SolveWithAndWithoutTracing)->Arg(0)->Arg(1);

void BM_RupCheckRefutation(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const CnfFormula f = pigeonhole(holes + 1, holes);
  InMemoryProof proof;
  Solver::Options opts;
  opts.tracer = &proof;
  Solver solver(opts);
  for (Var v = 0; v < f.numVars(); ++v) {
    benchmark::DoNotOptimize(solver.newVar());
  }
  for (const Clause& c : f.clauses()) {
    if (!solver.addClause(c)) break;
  }
  benchmark::DoNotOptimize(solver.solve());
  for (auto _ : state) {
    const ProofCheckResult r = checkProof(proof.lines());
    benchmark::DoNotOptimize(r.ok);
  }
  state.counters["lemmas"] = static_cast<double>(proof.numLemmas());
}
BENCHMARK(BM_RupCheckRefutation)->Arg(4)->Arg(5)->Arg(6);

}  // namespace

BENCHMARK_MAIN();
