/// Tests for the experiment harness: suite construction, the run matrix,
/// aborted accounting, scatter pairing, and the PBO engine behind the
/// OPB front end (PboSolver).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "gen/debug.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "harness/runner.h"
#include "harness/suite.h"
#include "harness/tables.h"
#include "pbo/pbo_solver.h"

namespace msu {
namespace {

TEST(Suite, MixedSuiteFamiliesAndDeterminism) {
  SuiteParams p;
  p.perFamily = 2;
  p.sizeScale = 0.3;
  const std::vector<Instance> a = buildMixedSuite(p);
  const std::vector<Instance> b = buildMixedSuite(p);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 8u);  // 4 families x 2 + php
  std::set<std::string> families;
  for (std::size_t i = 0; i < a.size(); ++i) {
    families.insert(a[i].family);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].wcnf.numSoft(), b[i].wcnf.numSoft());
    EXPECT_GT(a[i].wcnf.numSoft() + a[i].wcnf.numHard(), 0);
  }
  EXPECT_TRUE(families.contains("equivalence"));
  EXPECT_TRUE(families.contains("bmc"));
  EXPECT_TRUE(families.contains("debug"));
  EXPECT_TRUE(families.contains("random"));
  EXPECT_TRUE(families.contains("php"));
}

TEST(Suite, DebugSuiteIsPlainMaxSat) {
  SuiteParams p;
  p.perFamily = 3;
  p.sizeScale = 0.3;
  const std::vector<Instance> suite = buildDebugSuite(p);
  ASSERT_GE(suite.size(), 3u);
  for (const Instance& inst : suite) {
    EXPECT_EQ(inst.family, "debug");
    EXPECT_EQ(inst.wcnf.numHard(), 0);  // plain MaxSAT, as in Table 2
  }
}

/// 64-bit FNV-1a over each formula's variable count, every hard clause
/// and every soft clause's literals and weight. Counts and clause
/// lengths go in too, so no two different formulas share a byte stream.
class Fnv1a {
 public:
  void add(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }

  void add(const WcnfFormula& f) {
    add(f.numVars());
    add(f.numHard());
    for (const Clause& c : f.hard()) {
      add(static_cast<std::int64_t>(c.size()));
      for (Lit p : c) add(p.index());
    }
    add(f.numSoft());
    for (const SoftClause& s : f.soft()) {
      add(static_cast<std::int64_t>(s.lits.size()));
      for (Lit p : s.lits) add(p.index());
      add(s.weight);
    }
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<Instance>& suite) {
  Fnv1a h;
  for (const Instance& inst : suite) h.add(inst.wcnf);
  return h.value();
}

TEST(Suite, GeneratedInstancesArePinned) {
  // The generators' output backs e2ebench's recorded optima and every
  // committed bench/BENCH_*.json, so a generator change that alters a
  // single clause must show here. The values are libstdc++'s: the
  // generators use <random> distributions, whose output the standard
  // leaves to the library.
#ifndef __GLIBCXX__
  GTEST_SKIP() << "digests recorded with libstdc++";
#else
  SuiteParams mixed4;
  mixed4.perFamily = 4;
  EXPECT_EQ(digest(buildMixedSuite(mixed4)), 0x927baadb42854791ULL);
  EXPECT_EQ(digest(buildMixedSuite({})), 0x08d0b29d775be19dULL);
  EXPECT_EQ(digest(buildDebugSuite({})), 0xcbf083b8c3d43125ULL);
  SuiteParams weighted;
  weighted.perFamily = 3;
  weighted.sizeScale = 0.85;
  EXPECT_EQ(digest(buildWeightedSuite(weighted)), 0x6c76a96609e2c847ULL);

  // The first of e2ebench's ingest instances.
  DebugParams dp;
  dp.circuit.numInputs = 24;
  dp.circuit.numGates = 10000;
  dp.circuit.numOutputs = 1024;
  dp.circuit.seed = 20080310;
  dp.numVectors = 12;
  dp.seed = 20080317;
  Fnv1a ingest;
  ingest.add(designDebugInstance(dp, /*partial=*/true).wcnf);
  EXPECT_EQ(ingest.value(), 0x39eb2549da8ad3a2ULL);
#endif
}

TEST(Runner, RecordsAndCrossCheck) {
  // Tiny suite, two engines that must agree.
  std::vector<Instance> suite;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    suite.push_back(Instance{
        "rnd-" + std::to_string(seed), "random",
        WcnfFormula::allSoft(randomKSat({.numVars = 10, .numClauses = 50,
                                         .clauseLen = 3, .seed = seed}))});
  }
  RunConfig config;
  config.timeoutSeconds = 5.0;
  const std::vector<std::string> solvers{"msu4-v2", "maxsatz"};
  const std::vector<RunRecord> records = runMatrix(solvers, suite, config);
  ASSERT_EQ(records.size(), 6u);
  for (const RunRecord& r : records) {
    EXPECT_FALSE(r.aborted) << r.solver << " on " << r.instance;
    EXPECT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_GE(r.seconds, 0.0);
  }
  std::ostringstream diag;
  EXPECT_EQ(crossCheckOptima(records, diag), 0) << diag.str();
}

TEST(Runner, AbortedAccountingUnderTinyBudget) {
  std::vector<Instance> suite;
  suite.push_back(Instance{
      "php-9-8", "php",
      WcnfFormula::allSoft(
          randomKSat({.numVars = 60, .numClauses = 500, .clauseLen = 3,
                      .seed = 3}))});
  RunConfig config;
  config.timeoutSeconds = 0.01;
  const std::vector<std::string> solvers{"maxsatz"};
  const std::vector<RunRecord> records = runSolver("maxsatz", suite, config);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].aborted);
}

TEST(Tables, ScatterPairingAndCsv) {
  std::vector<RunRecord> records;
  auto add = [&](std::string solver, std::string inst, double t, bool ab) {
    RunRecord r;
    r.solver = std::move(solver);
    r.instance = std::move(inst);
    r.family = "f";
    r.seconds = t;
    r.aborted = ab;
    r.status = ab ? MaxSatStatus::Unknown : MaxSatStatus::Optimum;
    records.push_back(std::move(r));
  };
  add("a", "i1", 0.5, false);
  add("a", "i2", 1.0, true);
  add("b", "i1", 0.1, false);
  add("b", "i2", 0.2, false);
  add("b", "i3", 0.2, false);  // unmatched: no record for "a"

  const std::vector<ScatterPoint> pts = makeScatter(records, "b", "a");
  ASSERT_EQ(pts.size(), 2u);

  std::ostringstream csv;
  writeScatterCsv(csv, pts, "b", "a");
  EXPECT_NE(csv.str().find("instance,family,b_seconds,a_seconds"),
            std::string::npos);
  EXPECT_NE(csv.str().find("i1"), std::string::npos);

  std::ostringstream summary;
  printScatterSummary(summary, pts, "b", "a");
  EXPECT_NE(summary.str().find("aborted=1"), std::string::npos);
}

TEST(Tables, AbortedTableFormat) {
  std::vector<RunRecord> records;
  RunRecord r;
  r.solver = "solverx";
  r.instance = "i";
  r.family = "f";
  r.aborted = true;
  r.status = MaxSatStatus::Unknown;
  records.push_back(r);
  std::ostringstream out;
  const std::vector<std::string> order{"solverx"};
  printAbortedTable(out, records, order, "T");
  EXPECT_NE(out.str().find("solverx"), std::string::npos);
  EXPECT_NE(out.str().find("1"), std::string::npos);
}

// ---- PBO engine ----------------------------------------------------------

TEST(Pbo, SolvesWeightedObjective) {
  // minimize 2*b0 + b1 subject to (b0 | b1).
  PboProblem p;
  p.numVars = 2;
  p.clauses.push_back(Clause{posLit(0), posLit(1)});
  p.objective = {PbTerm{posLit(0), 2}, PbTerm{posLit(1), 1}};
  PboSolver solver;
  const PboResult r = solver.solve(p);
  ASSERT_EQ(r.status, PboStatus::Optimum);
  EXPECT_EQ(r.objective, 1);
  EXPECT_EQ(r.model[1], lbool::True);
}

TEST(Pbo, InfeasibleDetected) {
  PboProblem p;
  p.numVars = 1;
  p.clauses.push_back(Clause{posLit(0)});
  p.clauses.push_back(Clause{negLit(0)});
  p.objective = {PbTerm{posLit(0), 1}};
  PboSolver solver;
  EXPECT_EQ(solver.solve(p).status, PboStatus::Infeasible);
}

TEST(Pbo, RespectsPbConstraints) {
  // minimize b0 subject to b0 + b1 + b2 >= 2 encoded as
  // (-1)*... : use sum(~b) <= 1  ==  sum(b) >= 2.
  PboProblem p;
  p.numVars = 3;
  PbConstraint pc;
  pc.terms = {PbTerm{negLit(0), 1}, PbTerm{negLit(1), 1},
              PbTerm{negLit(2), 1}};
  pc.bound = 1;
  p.constraints.push_back(pc);
  p.objective = {PbTerm{posLit(0), 1}, PbTerm{posLit(1), 1},
                 PbTerm{posLit(2), 1}};
  PboSolver solver;
  const PboResult r = solver.solve(p);
  ASSERT_EQ(r.status, PboStatus::Optimum);
  EXPECT_EQ(r.objective, 2);
}

TEST(WeightedSuiteTest, DeterministicStructuredAndWeighted) {
  SuiteParams sp;
  sp.perFamily = 3;
  const std::vector<Instance> a = buildWeightedSuite(sp);
  const std::vector<Instance> b = buildWeightedSuite(sp);
  ASSERT_EQ(a.size(), 9u);  // three families x perFamily
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].wcnf.numVars(), b[i].wcnf.numVars());
    EXPECT_EQ(a[i].wcnf.numSoft(), b[i].wcnf.numSoft());
  }
  bool sawWeighted = false;
  bool sawHard = false;
  for (const Instance& inst : a) {
    sawWeighted = sawWeighted || !inst.wcnf.isUnweighted();
    sawHard = sawHard || inst.wcnf.numHard() > 0;
    EXPECT_GT(inst.wcnf.numSoft(), 0) << inst.name;
  }
  EXPECT_TRUE(sawWeighted);
  EXPECT_TRUE(sawHard);
}

TEST(WeightedSuiteTest, EveryInstanceSolvableByOll) {
  SuiteParams sp;
  sp.perFamily = 2;
  sp.sizeScale = 0.5;
  for (const Instance& inst : buildWeightedSuite(sp)) {
    auto solver = makeSolver("oll");
    const MaxSatResult r = solver->solve(inst.wcnf);
    EXPECT_TRUE(r.status == MaxSatStatus::Optimum ||
                r.status == MaxSatStatus::UnsatisfiableHard)
        << inst.name;
    if (r.status == MaxSatStatus::Optimum) {
      const std::optional<Weight> c = inst.wcnf.cost(r.model);
      ASSERT_TRUE(c.has_value()) << inst.name;
      EXPECT_EQ(*c, r.cost) << inst.name;
    }
  }
}

}  // namespace
}  // namespace msu
