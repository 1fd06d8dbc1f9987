#include <gtest/gtest.h>

#include "cache/artifact_cache.hpp"
#include "core/bounds.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "support/saturating.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::core {
namespace {

using graph::Graph;
using graph::Node;
using sim::RunConfig;
using sim::RunResult;
namespace families = rdv::graph::families;

RunResult run_universal(const Graph& g, Node u, Node v,
                        std::uint64_t delay, std::uint64_t max_rounds,
                        std::uint64_t max_phases = 200) {
  UniversalOptions options;
  options.max_phases = max_phases;
  RunConfig config;
  config.max_rounds = max_rounds;
  return sim::run_anonymous(g, universal_rv_program(options), u, v, delay,
                            config);
}

TEST(UniversalRV, TwoNodeGraphSymmetricDelayOne) {
  // The smallest feasible symmetric STIC: [(0,1), 1] in the two-node
  // graph; Shrink = 1; success guaranteed by phase g(2,1,1) = 6.
  const Graph g = families::two_node_graph();
  EXPECT_EQ(guaranteed_phase_symmetric(2, 1, 1), 6u);
  const RunResult r = run_universal(g, 0, 1, 1, 1u << 22);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(UniversalRV, TwoNodeGraphLargerDelays) {
  const Graph g = families::two_node_graph();
  for (std::uint64_t delay : {2ull, 3ull, 5ull}) {
    const RunResult r = run_universal(g, 0, 1, delay, 1u << 23);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.met) << "delay " << delay;
  }
}

TEST(UniversalRV, NonsymmetricPathNoDelay) {
  // Nonsymmetric positions, delta = 0: the AsymmRV arm of the first
  // phase with n' = 3 fires.
  const Graph g = families::path_graph(3);
  ASSERT_FALSE(views::compute_view_classes(g).symmetric(0, 2));
  const RunResult r = run_universal(g, 0, 2, 0, 1u << 23);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(UniversalRV, NonsymmetricBothOrders) {
  // The universal algorithm is role-free: either agent may be earlier.
  const Graph g = families::path_graph(4);
  for (const auto& [u, v] : {std::pair<Node, Node>{0, 2},
                             std::pair<Node, Node>{2, 0}}) {
    const RunResult r = run_universal(g, u, v, 1, 1u << 23);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.met) << u << "," << v;
  }
}

TEST(UniversalRV, SymmetricRingAtShrink) {
  // ring(4), opposite nodes: Shrink = 2; delay 2 is feasible.
  const Graph g = families::oriented_ring(4);
  ASSERT_EQ(views::shrink(g, 0, 2), 2u);
  const RunResult r = run_universal(g, 0, 2, 2, 1u << 24);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(UniversalRV, InfeasibleSymmetricBelowShrink) {
  // ring(4), delay 1 < Shrink = 2: no algorithm can meet (Lemma 3.1);
  // UniversalRV must run forever without meeting. Bound the simulation
  // by phases and rounds.
  const Graph g = families::oriented_ring(4);
  const RunResult r =
      run_universal(g, 0, 2, 1, /*max_rounds=*/1u << 22,
                    /*max_phases=*/60);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
}

TEST(UniversalRV, SimultaneousSymmetricNeverMeets) {
  const Graph g = families::two_node_graph();
  const RunResult r = run_universal(g, 0, 1, 0, /*max_rounds=*/1u << 22,
                                    /*max_phases=*/60);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
}

TEST(UniversalRV, MeetsWithinGuaranteedPhaseBudget) {
  // Stronger than "met": it met no later than the end of the
  // guaranteed phase, i.e. within the sum of phase durations through
  // g(n, Shrink, delta) (counted from the later agent's start; the
  // earlier agent spends `delay` extra rounds, which only helps).
  const Graph g = families::two_node_graph();
  const std::uint64_t P = guaranteed_phase_symmetric(2, 1, 1);
  std::uint64_t budget = 0;
  for (std::uint64_t p = 1; p <= P; ++p) {
    const PhaseTriple t = phase_decode(p);
    if (t.d >= t.n) continue;  // skipped phases consume no rounds
    const std::uint64_t M = cache::cached_uxs(
        static_cast<std::uint32_t>(t.n))->length();
    budget = support::sat_add(
        budget, universal_phase_duration(t.n, t.d, t.delta, M));
  }
  const RunResult r = run_universal(g, 0, 1, 1, 1u << 24);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.met);
  EXPECT_LE(r.meet_from_later_start, budget);
}

TEST(UniversalRV, AblationAsymmOnlyStillMeetsNonsymmetric) {
  UniversalOptions options;
  options.enable_symm = false;
  options.max_phases = 200;
  RunConfig config;
  config.max_rounds = 1u << 23;
  const Graph g = families::path_graph(3);
  const RunResult r = sim::run_anonymous(
      g, universal_rv_program(options), 0, 2, 0, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(UniversalRV, AblationSymmOnlyStillMeetsSymmetric) {
  UniversalOptions options;
  options.enable_asymm = false;
  options.max_phases = 200;
  RunConfig config;
  config.max_rounds = 1u << 23;
  const Graph g = families::two_node_graph();
  const RunResult r = sim::run_anonymous(
      g, universal_rv_program(options), 0, 1, 1, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

}  // namespace
}  // namespace rdv::core
