#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "views/refinement.hpp"

namespace rdv::sweep {
namespace {

namespace families = rdv::graph::families;
using analysis::Stic;

/// Pure classification kernel (no simulation) — cheap and
/// deterministic, the workhorse for the ordering tests.
std::function<analysis::ClassifiedStic(std::size_t)> classify_kernel(
    const graph::Graph& g, const views::ViewClasses& classes,
    const std::vector<Stic>& stics) {
  return [&g, &classes, &stics](std::size_t i) {
    return analysis::classify_stic(g, classes, stics[i]);
  };
}

/// One table row per classified STIC, in sweep order.
support::Table classify_table(
    const std::vector<analysis::ClassifiedStic>& classified) {
  support::Table table({"u", "v", "delay", "feasible"});
  for (const analysis::ClassifiedStic& cls : classified) {
    table.add_row({std::to_string(cls.stic.u), std::to_string(cls.stic.v),
                   std::to_string(cls.stic.delay),
                   cls.feasible ? "yes" : "no"});
  }
  return table;
}

TEST(SweepMap, CoversRangeInOrder) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  SweepStats stats;
  SweepConfig config;
  config.chunk_size = 3;  // 7 items -> chunks of 3,3,1 (non-divisible)
  const std::vector<int> out = sweep_map<int>(7, square, config, &stats);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
  EXPECT_EQ(stats.items_total, 7u);
  EXPECT_EQ(stats.chunks_total, 3u);
  EXPECT_EQ(stats.items_produced, 7u);
}

TEST(SweepMap, EmptyRange) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(0, id, {}, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.chunks_total, 0u);
}

TEST(SweepMap, SingleItemAndOversizedChunk) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 1000;  // one chunk swallows everything
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(1, id, config, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(stats.chunks_total, 1u);
}

TEST(SweepMap, ChunkSizeZeroFallsBackToDefault) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 0;
  const std::vector<int> out = sweep_map<int>(5, id, config);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4], 4);
  EXPECT_EQ(SweepConfig{}.chunk_size, 0u) << "auto sizing is the default";

  // The default sizes chunks from the work: ceil(n / (4 x threads))
  // items, at least 1 -- about four chunks per thread.
  struct Case {
    std::size_t n;
    std::size_t threads;
    std::size_t chunks;
    std::size_t chunk_size;
  };
  support::ThreadPool one(1);
  support::ThreadPool four(4);
  for (const Case c : {Case{36, 4, 12, 3}, Case{5, 4, 5, 1},
                       Case{1000, 4, 16, 63}, Case{36, 1, 4, 9},
                       Case{0, 4, 0, 1}}) {
    config.pool = c.threads == 1 ? &one : &four;
    SweepStats stats;
    const std::vector<int> got = sweep_map<int>(c.n, id, config, &stats);
    ASSERT_EQ(got.size(), c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      EXPECT_EQ(got[i], static_cast<int>(i));
    }
    EXPECT_EQ(stats.chunks_total, c.chunks)
        << "n=" << c.n << " threads=" << c.threads;
    EXPECT_EQ(stats.chunk_size, c.chunk_size)
        << "n=" << c.n << " threads=" << c.threads;
    EXPECT_EQ(stats.items_produced, c.n);
  }
}

TEST(SweepMap, ChunkSizeOne) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 1;
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(9, id, config, &stats);
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(stats.chunks_total, 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

// Scheduling every chunk upfront and merging by chunk index must keep
// the byte-for-byte ordering contract at any thread count and chunk
// size, including the auto-sized default, one item per chunk, a
// non-divisible split, an oversized chunk, and empty and single-item
// ranges.
TEST(SweepMap, PipelinedSchedulerDeterministicAcrossConfigs) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    support::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{64}}) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  std::size_t{99}}) {
        SweepConfig config;
        config.pool = &pool;
        config.chunk_size = chunk;
        SweepStats stats;
        const std::vector<int> out = sweep_map<int>(n, id, config, &stats);
        ASSERT_EQ(out.size(), n)
            << threads << " threads, chunk " << chunk << ", n " << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], static_cast<int>(i));
        }
        EXPECT_EQ(stats.items_produced, n);
      }
    }
  }
}

// A kernel that itself sweeps on the same pool: the nested shape that
// used to deadlock (the outer chunk's worker blocked on inner chunks
// only it could run). Work-assisting waits execute them instead.
TEST(SweepMap, NestedSweepInsideKernelCompletesAndStaysDeterministic) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 1;
    const std::function<int(std::size_t)> outer = [&](std::size_t i) {
      const std::function<int(std::size_t)> inner = [i](std::size_t j) {
        return static_cast<int>(i * 10 + j);
      };
      const std::vector<int> parts = sweep_map<int>(5, inner, config);
      int sum = 0;
      for (int p : parts) sum += p;
      return sum;
    };
    const std::vector<int> out = sweep_map<int>(8, outer, config);
    ASSERT_EQ(out.size(), 8u) << threads << " threads";
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * 50 + 10));
    }
  }
}

TEST(SticSweep, TableIdenticalForOneAndManyThreads) {
  const graph::Graph g = families::oriented_ring(5);
  const views::ViewClasses classes = views::compute_view_classes(g);
  const std::vector<Stic> stics = analysis::enumerate_stics(g, 3);
  const std::function<analysis::ClassifiedStic(std::size_t)> kernel =
      classify_kernel(g, classes, stics);

  support::ThreadPool one(1);
  SweepConfig config_one;
  config_one.pool = &one;
  config_one.chunk_size = 5;
  const std::vector<analysis::ClassifiedStic> r1 =
      sweep_map<analysis::ClassifiedStic>(stics.size(), kernel, config_one);

  support::ThreadPool many(4);
  SweepConfig config_many;
  config_many.pool = &many;
  config_many.chunk_size = 5;
  const std::vector<analysis::ClassifiedStic> rn =
      sweep_map<analysis::ClassifiedStic>(stics.size(), kernel, config_many);

  ASSERT_EQ(r1.size(), stics.size());
  ASSERT_EQ(rn.size(), stics.size());
  for (std::size_t i = 0; i < stics.size(); ++i) {
    EXPECT_EQ(r1[i].stic, stics[i]);
    EXPECT_EQ(rn[i].stic, stics[i]);
    EXPECT_EQ(r1[i].feasible, rn[i].feasible);
    EXPECT_EQ(r1[i].shrink, rn[i].shrink);
  }
  // Byte-identical aggregated tables: the acceptance bar.
  EXPECT_EQ(classify_table(r1).to_csv(), classify_table(rn).to_csv());
  EXPECT_EQ(classify_table(r1).to_markdown(),
            classify_table(rn).to_markdown());
}

TEST(SticSweep, FeasibilitySweepMatchesSerialVerification) {
  const graph::Graph g = families::oriented_ring(3);
  core::UniversalOptions options;
  options.max_phases = 120;
  const sim::AgentProgram program = core::universal_rv_program(options);
  sim::RunConfig config;
  config.max_rounds = 1u << 23;

  const analysis::SweepSummary summary =
      feasibility_sweep(g, 2, program, config);

  // Oracle: classify_stic plus one run_anonymous per STIC, in
  // enumeration order.
  const views::ViewClasses classes = views::compute_view_classes(g);
  const std::vector<analysis::Stic> stics = analysis::enumerate_stics(g, 2);
  ASSERT_EQ(summary.checks.size(), stics.size());
  std::uint64_t feasible = 0;
  for (std::size_t i = 0; i < stics.size(); ++i) {
    const analysis::ClassifiedStic cls =
        analysis::classify_stic(g, classes, stics[i]);
    const sim::RunResult run = sim::run_anonymous(
        g, program, stics[i].u, stics[i].v, stics[i].delay, config);
    if (cls.feasible) ++feasible;
    EXPECT_EQ(summary.checks[i].cls.stic, stics[i]);
    EXPECT_EQ(summary.checks[i].cls.feasible, cls.feasible);
    EXPECT_EQ(summary.checks[i].met, run.met);
    EXPECT_EQ(summary.checks[i].meet_from_later_start,
              run.meet_from_later_start);
    EXPECT_EQ(summary.checks[i].error, run.error);
    EXPECT_TRUE(summary.checks[i].consistent);
  }
  EXPECT_EQ(summary.feasible, feasible);
  EXPECT_EQ(summary.infeasible, stics.size() - feasible);
  EXPECT_EQ(summary.inconsistent, 0u);
}

/// Every field of a check, so two summaries compare byte for byte.
std::string render_check(const analysis::SticCheck& c) {
  std::string out;
  for (const std::uint64_t x :
       {std::uint64_t{c.cls.stic.u}, std::uint64_t{c.cls.stic.v},
        c.cls.stic.delay, std::uint64_t{c.cls.symmetric},
        std::uint64_t{c.cls.shrink}, std::uint64_t{c.cls.feasible},
        std::uint64_t{c.met}, c.meet_from_later_start,
        std::uint64_t{c.consistent}}) {
    out += std::to_string(x);
    out += ',';
  }
  return out + c.error;
}

// 1/4/16 threads x chunk sizes {auto, 1, 64}: every field of every
// check must match, on graphs with feasible and cap-bound infeasible
// STICs alike.
TEST(SticSweep, FeasibilitySweepDeterministicAcrossThreadCounts) {
  core::UniversalOptions options;
  options.max_phases = 40;
  const sim::AgentProgram program = core::universal_rv_program(options);
  sim::RunConfig config;
  config.max_rounds = 1u << 16;
  for (const graph::Graph& g :
       {families::two_node_graph(), families::path_graph(3),
        families::oriented_ring(3)}) {
    std::vector<std::string> baseline;
    for (const std::size_t threads : {1u, 4u, 16u}) {
      support::ThreadPool pool(threads);
      for (const std::size_t chunk : {0u, 1u, 64u}) {
        SweepConfig sweep_config;
        sweep_config.pool = &pool;
        sweep_config.chunk_size = chunk;
        const analysis::SweepSummary summary =
            feasibility_sweep(g, 1, program, config, sweep_config);
        EXPECT_EQ(summary.inconsistent, 0u) << g.name();
        std::vector<std::string> rendered;
        for (const analysis::SticCheck& check : summary.checks) {
          rendered.push_back(render_check(check));
        }
        if (baseline.empty()) {
          ASSERT_EQ(rendered.size(), analysis::enumerate_stics(g, 1).size());
          baseline = rendered;
        }
        EXPECT_EQ(rendered, baseline)
            << g.name() << " threads=" << threads << " chunk=" << chunk;
      }
    }
  }
}

}  // namespace
}  // namespace rdv::sweep
