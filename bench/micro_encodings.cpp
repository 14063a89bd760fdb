/// \file micro_encodings.cpp
/// \brief google-benchmark micro-benchmarks of the cardinality and PB
///        encodings: emission time and emitted size (clauses/aux vars as
///        counters) across (n, k) — the substrate behind msu4 v1 vs v2.

#include <benchmark/benchmark.h>

#include "cnf/formula.h"
#include "encodings/cardinality.h"
#include "encodings/pb.h"
#include "encodings/sink.h"

namespace {

using namespace msu;

void encodeCard(benchmark::State& state, CardEncoding enc) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  std::int64_t clauses = 0;
  std::int64_t auxVars = 0;
  for (auto _ : state) {
    CnfFormula cnf(n);
    std::vector<Lit> lits;
    for (Var v = 0; v < n; ++v) lits.push_back(posLit(v));
    FormulaSink sink(cnf);
    encodeAtMost(sink, lits, k, enc);
    benchmark::DoNotOptimize(cnf.numClauses());
    clauses = cnf.numClauses();
    auxVars = cnf.numVars() - n;
  }
  state.counters["clauses"] = static_cast<double>(clauses);
  state.counters["aux_vars"] = static_cast<double>(auxVars);
}

void args(benchmark::internal::Benchmark* b) {
  b->Args({32, 4})->Args({128, 8})->Args({512, 16})->Args({512, 128});
}

void BM_AtMost_Bdd(benchmark::State& s) { encodeCard(s, CardEncoding::Bdd); }
void BM_AtMost_Sorter(benchmark::State& s) {
  encodeCard(s, CardEncoding::Sorter);
}
void BM_AtMost_Totalizer(benchmark::State& s) {
  encodeCard(s, CardEncoding::Totalizer);
}

BENCHMARK(BM_AtMost_Bdd)->Apply(args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AtMost_Sorter)->Apply(args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AtMost_Totalizer)->Apply(args)->Unit(benchmark::kMicrosecond);

// At-most-one forms: emitted size across n (clauses/aux as counters).
void encodeAmoBench(benchmark::State& state,
                    void (*fn)(ClauseSink&, std::span<const Lit>,
                               std::optional<Lit>)) {
  const int n = static_cast<int>(state.range(0));
  std::int64_t clauses = 0;
  std::int64_t auxVars = 0;
  for (auto _ : state) {
    CnfFormula cnf(n);
    std::vector<Lit> lits;
    for (Var v = 0; v < n; ++v) lits.push_back(posLit(v));
    FormulaSink sink(cnf);
    fn(sink, lits, std::nullopt);
    benchmark::DoNotOptimize(cnf.numClauses());
    clauses = cnf.numClauses();
    auxVars = cnf.numVars() - n;
  }
  state.counters["clauses"] = static_cast<double>(clauses);
  state.counters["aux_vars"] = static_cast<double>(auxVars);
}

void BM_Amo_Pairwise(benchmark::State& s) {
  encodeAmoBench(s, encodeAtMostOnePairwise);
}
void BM_Amo_Ladder(benchmark::State& s) {
  encodeAmoBench(s, encodeAtMostOneLadder);
}

void amoArgs(benchmark::internal::Benchmark* b) {
  b->Arg(16)->Arg(64)->Arg(256);
}
BENCHMARK(BM_Amo_Pairwise)->Apply(amoArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Amo_Ladder)->Apply(amoArgs)->Unit(benchmark::kMicrosecond);

void BM_PbLeq(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto enc = static_cast<PbEncoding>(state.range(1));
  std::int64_t clauses = 0;
  for (auto _ : state) {
    CnfFormula cnf(n);
    FormulaSink sink(cnf);
    std::vector<PbTerm> terms;
    Weight total = 0;
    for (Var v = 0; v < n; ++v) {
      const Weight c = 1 + (v % 7);
      terms.push_back(PbTerm{posLit(v), c});
      total += c;
    }
    encodePbLeq(sink, terms, total / 3, enc);
    benchmark::DoNotOptimize(cnf.numClauses());
    clauses = cnf.numClauses();
  }
  state.counters["clauses"] = static_cast<double>(clauses);
}

BENCHMARK(BM_PbLeq)
    ->Args({64, static_cast<int>(PbEncoding::Bdd)})
    ->Args({64, static_cast<int>(PbEncoding::Adder)})
    ->Args({256, static_cast<int>(PbEncoding::Adder)})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
