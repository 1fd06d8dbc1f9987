#include <gtest/gtest.h>

#include "core/random_walk.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "views/shrink.hpp"

namespace rdv::core {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(RandomWalk, DeterministicGivenSeeds) {
  const Graph g = families::oriented_ring(8);
  sim::RunConfig config;
  config.max_rounds = 50'000;
  const auto a = sim::run_pair(g, lazy_random_walk_program(1),
                               lazy_random_walk_program(2), 0, 4, 0,
                               config);
  const auto b = sim::run_pair(g, lazy_random_walk_program(1),
                               lazy_random_walk_program(2), 0, 4, 0,
                               config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.met, b.met);
  EXPECT_EQ(a.meet_round_absolute, b.meet_round_absolute);
}

TEST(RandomWalk, LazyWalksMeetEvenOnInfeasibleSymmetricStics) {
  // The conclusion's contrast: [(0, n/2), 0] on an even oriented ring
  // is deterministically INFEASIBLE (symmetric, delta = 0 < Shrink),
  // yet independent lazy random walks meet quickly.
  const Graph g = families::oriented_ring(8);
  ASSERT_EQ(views::shrink(g, 0, 4), 4u);
  sim::RunConfig config;
  config.max_rounds = 100'000;
  int met = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto r = sim::run_pair(
        g, lazy_random_walk_program(2 * seed + 1),
        lazy_random_walk_program(2 * seed + 2), 0, 4, 0, config);
    ASSERT_TRUE(r.ok()) << r.error;
    if (r.met) ++met;
  }
  EXPECT_EQ(met, 10);  // w.h.p. per run; certain across this cap
}

TEST(RandomWalk, PlainWalksTrappedByParity) {
  // Two plain (non-lazy) walks on a bipartite graph at odd initial
  // distance can cross but never meet: both move every round, so the
  // distance parity is invariant.
  const Graph g = families::oriented_ring(8);  // bipartite (even cycle)
  sim::RunConfig config;
  config.max_rounds = 20'000;
  const auto r = sim::run_pair(g, lazy_random_walk_program(7, 0),
                               lazy_random_walk_program(8, 0), 0, 3, 0,
                               config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
  EXPECT_GT(r.edge_crossings, 0u);
}

TEST(RandomWalk, IdenticalSeedsOnSymmetricPairNeverMeet) {
  // With the SAME seed the "randomized" agents are deterministic clones
  // again — Lemma 3.1's impossibility reappears. Randomness only helps
  // because it is independent.
  const Graph g = families::oriented_ring(6);
  sim::RunConfig config;
  config.max_rounds = 20'000;
  const auto r = sim::run_anonymous(g, lazy_random_walk_program(5), 0, 3,
                                    0, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
}

TEST(RandomWalk, MeetsAcrossFamilies) {
  const std::vector<Graph> corpus = {
      families::hypercube(3),
      families::oriented_torus(3, 3),
      families::symmetric_double_tree(2, 2),
      families::random_connected(10, 5, 3),
  };
  sim::RunConfig config;
  config.max_rounds = 200'000;
  for (const Graph& g : corpus) {
    const auto r = sim::run_pair(g, lazy_random_walk_program(11),
                                 lazy_random_walk_program(12), 0,
                                 g.size() / 2, 1, config);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.met) << g.name();
  }
}

TEST(RandomWalk, RejectsAlwaysStay) {
  EXPECT_THROW(lazy_random_walk_program(1, 1000), std::invalid_argument);
}

}  // namespace
}  // namespace rdv::core
