#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "views/refinement.hpp"

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

/// feasibility_sweep's verdict on every STIC must be run_anonymous's.
/// Returns the oracle runs in enumeration order.
std::vector<sim::RunResult> expect_sweep_matches_run_anonymous(
    const Graph& g, std::uint64_t max_delay, const sim::AgentProgram& program,
    const sim::RunConfig& config, support::ThreadPool& pool) {
  sweep::SweepConfig sweep_config;
  sweep_config.pool = &pool;
  const SweepSummary summary =
      sweep::feasibility_sweep(g, max_delay, program, config, sweep_config);
  const views::ViewClasses classes = views::compute_view_classes(g);
  const std::vector<Stic> stics = enumerate_stics(g, max_delay);
  EXPECT_EQ(summary.checks.size(), stics.size()) << g.name();
  std::vector<sim::RunResult> runs;
  for (std::size_t i = 0; i < stics.size() && i < summary.checks.size();
       ++i) {
    const Stic& s = stics[i];
    sim::RunResult run =
        sim::run_anonymous(g, program, s.u, s.v, s.delay, config);
    const bool feasible = classify_stic(g, classes, s).feasible;
    const SticCheck& check = summary.checks[i];
    const std::string where = g.name() + " [(" + std::to_string(s.u) + "," +
                              std::to_string(s.v) + ")," +
                              std::to_string(s.delay) + "]";
    EXPECT_EQ(check.cls.stic, s) << where;
    EXPECT_EQ(check.met, run.met) << where;
    EXPECT_EQ(check.meet_from_later_start, run.meet_from_later_start)
        << where;
    EXPECT_EQ(check.error, run.error) << where;
    EXPECT_EQ(check.consistent, run.ok() && run.met == feasible) << where;
    runs.push_back(std::move(run));
  }
  return runs;
}

// Pins the merge of recorded solo walks against the two-agent engine on
// t2's census cases, with t2's delays, phase budgets and round caps.
TEST(FeasibilitySweep, MergedWalksMatchRunAnonymousOnCensusGraphs) {
  struct Case {
    Graph g;
    std::uint64_t max_delay;
    std::uint64_t max_phases;
    std::uint64_t cap;
  };
  const std::vector<Case> cases = {
      {families::two_node_graph(), 2, 60, 1u << 22},
      {families::oriented_ring(3), 2, 120, 1u << 23},
      {families::path_graph(3), 1, 120, 1u << 23},
      {families::oriented_ring(4), 2, 150, 1u << 24},
      {families::symmetric_double_tree(1, 1), 1, 150, 1u << 24}};
  support::ThreadPool pool(1);
  std::size_t stics = 0;
  for (const Case& c : cases) {
    core::UniversalOptions options;
    options.max_phases = c.max_phases;
    sim::RunConfig config;
    config.max_rounds = c.cap;
    stics += expect_sweep_matches_run_anonymous(
                 c.g, c.max_delay, core::universal_rv_program(options),
                 config, pool)
                 .size();
  }
  EXPECT_EQ(stics, 96u);
}

enum class Ending { kThrow, kBadPort, kSpin, kReturn };

/// Takes port (clock mod degree) every round; from local clock
/// k x (start degree) on it ends as `ending` says, so agents from nodes
/// of different degrees end at different rounds.
sim::AgentProgram ends_at(std::uint64_t k, Ending ending) {
  return [k, ending](sim::Mailbox& mb, sim::Observation start) -> sim::Proc {
    return [](sim::Mailbox& mb2, sim::Observation o, std::uint64_t at,
              Ending end) -> sim::Proc {
      while (o.clock < at) {
        o = co_await mb2.move(static_cast<graph::Port>(o.clock % o.degree));
      }
      switch (end) {
        case Ending::kThrow:
          throw std::runtime_error("clock " + std::to_string(o.clock));
        case Ending::kBadPort:
          co_await mb2.move(o.degree);
          break;
        case Ending::kSpin:
          for (;;) co_await mb2.wait(0);
        case Ending::kReturn:
          break;
      }
    }(mb, start, k * start.degree, ending);
  };
}

// Program errors and finished walks: errors of either agent, an error
// in the round of a would-be meeting, meetings after a walk returned.
TEST(FeasibilitySweep, MergedErrorsMatchRunAnonymous) {
  sim::RunConfig config;
  config.max_rounds = 64;
  config.max_zero_wait_spin = 32;
  support::ThreadPool pool(2);
  std::size_t earlier_errors = 0;
  std::size_t later_errors = 0;
  std::size_t meetings = 0;
  for (const Graph& g : {families::two_node_graph(), families::path_graph(3),
                         families::oriented_ring(3)}) {
    for (const Ending ending :
         {Ending::kThrow, Ending::kBadPort, Ending::kSpin, Ending::kReturn}) {
      for (const std::uint64_t k : {1u, 2u, 3u}) {
        for (const sim::RunResult& run : expect_sweep_matches_run_anonymous(
                 g, 3, ends_at(k, ending), config, pool)) {
          if (run.error.starts_with("agent 0 ")) ++earlier_errors;
          if (run.error.starts_with("agent 1 ")) ++later_errors;
          if (run.met) ++meetings;
        }
      }
    }
  }
  EXPECT_GT(earlier_errors, 0u);
  EXPECT_GT(later_errors, 0u);
  EXPECT_GT(meetings, 0u);

  // On path(2) both agents cross the edge every round, so [(0,1), 1]
  // meets at round 1 — unless the earlier agent throws in that round:
  // the error ends the round before its meeting check.
  const Graph g = families::two_node_graph();
  support::ThreadPool one(1);
  for (const std::uint64_t k : {1u, 2u}) {
    const std::vector<sim::RunResult> runs = expect_sweep_matches_run_anonymous(
        g, 1, ends_at(k, Ending::kThrow), config, one);
    const std::vector<Stic> stics = enumerate_stics(g, 1);
    for (std::size_t i = 0; i < stics.size(); ++i) {
      if (stics[i] != Stic{0, 1, 1}) continue;
      EXPECT_EQ(runs[i].met, k == 2);
      EXPECT_EQ(runs[i].error, k == 1 ? "agent 0 threw: clock 1" : "");
    }
  }
}

}  // namespace
}  // namespace rdv::analysis
