/// Tests for the graph/scheduling MaxSAT generators: every instance's
/// engine-computed optimum must match the dedicated brute-force
/// reference (coloring penalty, max-cut weight, vertex-cover size), the
/// generators must be deterministic in their seeds, and the weighted
/// variants must round-trip through the weighted engines.

#include <gtest/gtest.h>

#include <random>

#include "cnf/oracle.h"
#include "gen/graphs.h"
#include "harness/factory.h"

namespace msu {
namespace {

TEST(GraphGenTest, RandomGraphRespectsProbabilityExtremes) {
  const Graph none = randomGraph(8, 0.0, 1);
  EXPECT_TRUE(none.edges.empty());
  const Graph full = randomGraph(8, 1.0, 1);
  EXPECT_EQ(static_cast<int>(full.edges.size()), 8 * 7 / 2);
}

TEST(GraphGenTest, GeneratorsAreDeterministicPerSeed) {
  const Graph a = randomGraph(12, 0.4, 99);
  const Graph b = randomGraph(12, 0.4, 99);
  EXPECT_EQ(a.edges, b.edges);
  const Graph c = ringWithChords(10, 5, 3);
  const Graph d = ringWithChords(10, 5, 3);
  EXPECT_EQ(c.edges, d.edges);
}

TEST(GraphGenTest, RingWithChordsIsARingPlusChords) {
  const Graph g = ringWithChords(9, 4, 5);
  EXPECT_EQ(g.numVertices, 9);
  EXPECT_EQ(static_cast<int>(g.edges.size()), 9 + 4);
  // No duplicates.
  std::set<std::pair<int, int>> seen(g.edges.begin(), g.edges.end());
  EXPECT_EQ(seen.size(), g.edges.size());
}

class ColoringVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ColoringVsBruteForce, EngineOptimumMatches) {
  const auto [k, seed] = GetParam();
  const Graph g = randomGraph(7, 0.5, seed);
  const WcnfFormula w = coloringInstance(g, k);
  auto solver = makeSolver("msu4-v2");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, chromaticPenaltyBruteForce(g, k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColoringVsBruteForce,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ColoringTest, BipartiteGraphTwoColorsForFree) {
  // An even ring is 2-colorable.
  const Graph g = ringWithChords(8, 0, 1);
  const WcnfFormula w = coloringInstance(g, 2);
  auto solver = makeSolver("oll");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST(ColoringTest, OddRingNeedsOneClashWithTwoColors) {
  const Graph g = ringWithChords(9, 0, 1);
  const WcnfFormula w = coloringInstance(g, 2);
  auto solver = makeSolver("msu3");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 1);
}

TEST(MaxCutTest, MatchesBruteForceUnweighted) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = randomGraph(9, 0.45, seed * 13);
    const WcnfFormula w = maxCutInstance(g);
    auto solver = makeSolver("msu4-v2");
    const MaxSatResult r = solver->solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    const Weight cut = static_cast<Weight>(g.edges.size()) - r.cost;
    EXPECT_EQ(cut, maxCutBruteForce(g)) << "seed " << seed;
  }
}

TEST(MaxCutTest, MatchesBruteForceWeighted) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = randomGraph(8, 0.5, seed * 29);
    std::mt19937_64 rng(seed);
    std::vector<Weight> weights;
    Weight total = 0;
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      weights.push_back(1 + static_cast<Weight>(rng() % 7));
      total += weights.back();
    }
    const WcnfFormula w = maxCutInstance(g, weights);
    auto solver = makeSolver("oll");
    const MaxSatResult r = solver->solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(total - r.cost, maxCutBruteForce(g, weights)) << "seed " << seed;
  }
}

TEST(MaxCutTest, CompleteGraphK4CutsFourEdges) {
  const Graph g = randomGraph(4, 1.0, 1);
  const WcnfFormula w = maxCutInstance(g);
  auto solver = makeSolver("msu4-v2");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(static_cast<Weight>(g.edges.size()) - r.cost, 4);
}

TEST(VertexCoverTest, MatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = randomGraph(9, 0.4, seed * 7);
    const WcnfFormula w = vertexCoverInstance(g);
    auto solver = makeSolver("msu4-v2");
    const MaxSatResult r = solver->solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, vertexCoverBruteForce(g)) << "seed " << seed;
  }
}

TEST(VertexCoverTest, StarGraphNeedsOnlyTheCenter) {
  Graph g;
  g.numVertices = 7;
  for (int leaf = 1; leaf < 7; ++leaf) g.edges.emplace_back(0, leaf);
  const WcnfFormula w = vertexCoverInstance(g);
  auto solver = makeSolver("oll");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 1);
  EXPECT_EQ(r.model[0], lbool::True);
}

TEST(TimetableTest, InstanceStructureIsSane) {
  TimetableParams params;
  params.numEvents = 6;
  params.numSlots = 3;
  params.seed = 2;
  const WcnfFormula w = timetablingInstance(params);
  EXPECT_EQ(w.numVars(), 18);
  EXPECT_EQ(w.numSoft(), params.numEvents * params.preferencesPerEvent);
  EXPECT_GT(w.numHard(), 0);
}

TEST(TimetableTest, OptimumMatchesOracleOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TimetableParams params;
    params.numEvents = 4;
    params.numSlots = 3;
    params.conflictProbability = 0.4;
    params.seed = seed;
    const WcnfFormula w = timetablingInstance(params);
    ASSERT_LE(w.numVars(), kOracleMaxVars);
    const OracleResult oracle = oracleMaxSat(w);
    auto solver = makeSolver("oll");
    const MaxSatResult r = solver->solve(w);
    if (!oracle.optimumCost) {
      EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
      EXPECT_EQ(r.cost, *oracle.optimumCost) << "seed " << seed;
    }
  }
}

TEST(TimetableTest, NoConflictsMeansOnlyPreferenceClashesCost) {
  // Without conflicts every event gets a slot; the only cost source is
  // an event preferring two different slots (at most one can hold).
  TimetableParams params;
  params.numEvents = 5;
  params.numSlots = 4;
  params.conflictProbability = 0.0;
  params.preferencesPerEvent = 1;
  params.seed = 9;
  const WcnfFormula w = timetablingInstance(params);
  auto solver = makeSolver("linear");
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);  // single preference per event is always granted
}

}  // namespace
}  // namespace msu
