#include <gtest/gtest.h>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sweep/sweep.hpp"

namespace rdv::analysis {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Stics, EnumerationCounts) {
  const Graph g = families::path_graph(3);
  const auto stics = enumerate_stics(g, 2);
  // 3*2 ordered pairs * 3 delays.
  EXPECT_EQ(stics.size(), 18u);
}

TEST(Classify, SymmetricRequiresShrinkDelay) {
  const Graph g = families::oriented_ring(6);
  // (0, 3): symmetric, Shrink = 3.
  for (std::uint64_t delay = 0; delay <= 5; ++delay) {
    const auto cls = classify_stic(g, Stic{0, 3, delay});
    EXPECT_TRUE(cls.symmetric);
    EXPECT_EQ(cls.shrink, 3u);
    EXPECT_EQ(cls.feasible, delay >= 3);
  }
}

TEST(Classify, NonsymmetricAlwaysFeasible) {
  const Graph g = families::path_graph(4);
  for (std::uint64_t delay = 0; delay <= 3; ++delay) {
    const auto cls = classify_stic(g, Stic{0, 2, delay});
    EXPECT_FALSE(cls.symmetric);
    EXPECT_TRUE(cls.feasible);
  }
}

TEST(FeasibilitySweep, TwoNodeGraphMatchesCharacterization) {
  // Full cross-check of Corollary 3.1 on the two-node graph with
  // UniversalRV: [(0,1), 0] infeasible, [(0,1), delta>=1] feasible.
  const Graph g = families::two_node_graph();
  core::UniversalOptions options;
  options.max_phases = 60;
  sim::RunConfig config;
  config.max_rounds = 1u << 22;
  const SweepSummary summary = sweep::feasibility_sweep(
      g, 2, core::universal_rv_program(options), config);
  EXPECT_EQ(summary.checks.size(), 6u);
  EXPECT_EQ(summary.feasible, 4u);    // delays 1,2 in both orders
  EXPECT_EQ(summary.infeasible, 2u);  // delay 0 in both orders
  EXPECT_EQ(summary.inconsistent, 0u);
}

TEST(FeasibilitySweep, Path3MatchesCharacterization) {
  // path(3): all pairs nonsymmetric -> everything feasible.
  const Graph g = families::path_graph(3);
  core::UniversalOptions options;
  options.max_phases = 120;
  sim::RunConfig config;
  config.max_rounds = 1u << 23;
  const SweepSummary summary = sweep::feasibility_sweep(
      g, 1, core::universal_rv_program(options), config);
  EXPECT_EQ(summary.infeasible, 0u);
  EXPECT_EQ(summary.inconsistent, 0u);
}

}  // namespace
}  // namespace rdv::analysis
