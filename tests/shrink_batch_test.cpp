// Equivalence and determinism suite for the batched all-pairs Shrink
// kernel (views::shrink_all_pairs): the per-pair product BFS
// (shrink_with_witness) is the oracle, the batched level-ordered
// backward closure must agree on EVERY ordered pair of every family,
// through every cache/store/thread configuration the census runs
// under.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "graph/families/implicit.hpp"
#include "graph/graph.hpp"
#include "golden_hash.hpp"
#include "store/disk_store.hpp"
#include "support/splitmix.hpp"
#include "views/shrink.hpp"

namespace rdv::views {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

std::vector<Graph> equivalence_corpus() {
  std::vector<Graph> corpus;
  corpus.push_back(families::two_node_graph());
  corpus.push_back(families::oriented_ring(7));
  corpus.push_back(families::oriented_ring(8));
  corpus.push_back(families::scrambled_ring(9, /*seed=*/5));
  corpus.push_back(families::path_graph(9));
  corpus.push_back(families::complete(6));
  corpus.push_back(families::star(7));
  corpus.push_back(families::grid(3, 4));
  corpus.push_back(families::complete_bipartite(3, 4));
  corpus.push_back(families::oriented_torus(3, 4));
  corpus.push_back(families::hypercube(3));
  corpus.push_back(families::symmetric_double_tree(2, 2));
  corpus.push_back(families::balanced_tree(3, 2));
  corpus.push_back(families::ring_with_chord(10));
  corpus.push_back(families::random_connected(14, 12, 71));
  corpus.push_back(families::random_connected(17, 30, 72));
  return corpus;
}

TEST(ShrinkAllPairs, MatchesPerPairOracleOnEveryFamily) {
  for (const Graph& g : equivalence_corpus()) {
    SCOPED_TRACE(g.name());
    const AllPairsShrink all = shrink_all_pairs(g);
    ASSERT_EQ(all.n, g.size());
    ASSERT_EQ(all.values.size(),
              static_cast<std::size_t>(g.size()) * g.size());
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), shrink(g, u, v))
            << "pair " << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, SymmetricWithZeroDiagonal) {
  for (const Graph& g : equivalence_corpus()) {
    SCOPED_TRACE(g.name());
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      EXPECT_EQ(all.at(u, u), 0u);
      for (Node v = u + 1; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), all.at(v, u))
            << "pair " << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, ExploresAtLeastReachablePairCount) {
  const Graph g = families::oriented_ring(8);
  const AllPairsShrink all = shrink_all_pairs(g);
  // Every ordered pair of a connected graph is reachable in the product
  // graph from itself, so the closure visits at least the canonical
  // (upper-triangle + diagonal) pair count.
  EXPECT_GE(all.pairs_explored, 8ull * 9 / 2);
}

TEST(ShrinkAllPairs, DisconnectedCrossComponentPairsAreUnreachable) {
  // Two disjoint 2-cycles, built through the public Graph constructor
  // (GraphBuilder would reject the disconnectivity).
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  adj[0] = {{1, 0}};
  adj[1] = {{0, 0}};
  adj[2] = {{3, 0}};
  adj[3] = {{2, 0}};
  const Graph g(std::move(adj), "two-edges");
  const AllPairsShrink all = shrink_all_pairs(g);
  for (Node u = 0; u < 4; ++u) {
    for (Node v = 0; v < 4; ++v) {
      const bool same_component = (u / 2) == (v / 2);
      if (same_component) {
        EXPECT_NE(all.at(u, v), graph::kUnreachable) << u << "," << v;
        EXPECT_EQ(all.at(u, v), shrink(g, u, v)) << u << "," << v;
      } else {
        EXPECT_EQ(all.at(u, v), graph::kUnreachable) << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, ImplicitFamiliesPinShrinkEqualsDistance) {
  // The implicit census (c2) classifies STICs via Shrink == dist on
  // vertex-transitive families. Pin that identity against the batched
  // kernel on the explicit twins.
  {
    const families::OrientedRingTopology ring(9);
    const Graph g = families::oriented_ring(9);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), ring.distance(u, v)) << u << "," << v;
      }
    }
  }
  {
    const families::OrientedTorusTopology torus(3, 4);
    const Graph g = families::oriented_torus(3, 4);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), torus.distance(u, v)) << u << "," << v;
      }
    }
  }
  {
    const families::HypercubeTopology cube(4);
    const Graph g = families::hypercube(4);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), cube.distance(u, v)) << u << "," << v;
      }
    }
  }
}

/// Golden pins past one 64-node batch: c1's two largest graphs, three
/// graphs whose last batch is partial, a ring with about 150 levels, a
/// path with 256 levels (sparse BFS frontiers), a hypercube, a torus
/// and a grid. Each constant folds n, every value and pairs_explored,
/// recorded from the one-BFS-per-source kernel that preceded the
/// bit-parallel one.
TEST(ShrinkAllPairs, GoldenTablesAtScale) {
  struct Pin {
    Graph g;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins = {
      {families::random_connected(1024, 1792, 35), 0xe355751400ef9bfbULL},
      {families::random_connected(512, 900, 34), 0x88b7225863222586ULL},
      {families::random_connected(65, 110, 81), 0x77c24e0bf947f7cdULL},
      {families::random_connected(130, 230, 82), 0xc201f3766318c0ffULL},
      {families::random_connected(199, 350, 83), 0xc7481e22e6a2becdULL},
      {families::oriented_ring(300), 0x7e3b89c608329b00ULL},
      {families::path_graph(257), 0x37d711446fc8f0f9ULL},
      {families::hypercube(8), 0x1a2bc56379b5c52aULL},
      {families::oriented_torus(17, 19), 0x1f1079223e786c53ULL},
      {families::grid(24, 23), 0x542fb5ad198ec5adULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.g.name());
    const AllPairsShrink all = shrink_all_pairs(pin.g);
    tests::GoldenHash hash;
    hash.add(all.n);
    for (const std::uint32_t value : all.values) hash.add(value);
    hash.add(all.pairs_explored);
    EXPECT_EQ(hash.value(), pin.hash)
        << std::hex << "0x" << hash.value() << "ULL";
  }
}

TEST(ShrinkAllPairs, MatchesPerPairOracleAcrossBatches) {
  const Graph g = families::random_connected(130, 230, 82);
  const AllPairsShrink all = shrink_all_pairs(g);
  support::SplitMix64 rng(0x5EEDULL);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<Node>(rng.next_below(g.size()));
    const auto v = static_cast<Node>(rng.next_below(g.size()));
    EXPECT_EQ(all.at(u, v), shrink_with_witness(g, u, v).shrink)
        << "pair " << u << "," << v;
  }
}

/// Two oriented rings of 70 and 60 nodes: the first ring spans the
/// 64-node batch boundary and the second starts inside the second
/// batch.
TEST(ShrinkAllPairs, DisconnectedAcrossBatchBoundary) {
  constexpr Node kFirst = 70;
  constexpr Node kSecond = 60;
  std::vector<std::vector<graph::HalfEdge>> adj(kFirst + kSecond);
  const auto add_ring = [&adj](Node base, Node size) {
    for (Node i = 0; i < size; ++i) {
      adj[base + i] = {{base + (i + 1) % size, 1},
                       {base + (i + size - 1) % size, 0}};
    }
  };
  add_ring(0, kFirst);
  add_ring(kFirst, kSecond);
  const Graph g(std::move(adj), "two-rings-70-60");
  const AllPairsShrink all = shrink_all_pairs(g);
  const auto ring_of = [](Node x) { return x < kFirst ? 0 : 1; };
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = 0; v < g.size(); ++v) {
      if (ring_of(u) != ring_of(v)) {
        EXPECT_EQ(all.at(u, v), graph::kUnreachable) << u << "," << v;
        continue;
      }
      const Node size = ring_of(u) == 0 ? kFirst : kSecond;
      const Node gap = u > v ? u - v : v - u;
      EXPECT_EQ(all.at(u, v), std::min(gap, size - gap)) << u << "," << v;
    }
  }
  // Every unordered same-ring pair, diagonal included: 70*71/2 + 60*61/2.
  EXPECT_EQ(all.pairs_explored, 4315u);
}

/// The census determinism contract: resolving the all-pairs table
/// through the cache from many threads, with the cache enabled,
/// disabled, or eviction-thrashed, always yields the same values —
/// byte-identical once serialized into census rows.
TEST(ShrinkAllPairs, IdenticalValuesAcrossThreadsAndCacheConfigs) {
  const Graph g = families::random_connected(20, 30, 73);
  const AllPairsShrink reference = shrink_all_pairs(g);

  cache::CacheConfig off;
  off.enabled = false;
  cache::CacheConfig tiny;
  tiny.shards = 1;
  tiny.capacity_per_shard = 1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{16}}) {
    for (const cache::CacheConfig& config :
         {cache::CacheConfig{}, off, tiny}) {
      cache::ArtifactCache cache(config);
      std::vector<std::vector<std::uint32_t>> seen(threads);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const auto all = cache::cached_all_pairs_shrink(g, &cache);
          seen[t] = all->values;
        });
      }
      for (std::thread& w : workers) w.join();
      for (std::size_t t = 0; t < threads; ++t) {
        EXPECT_EQ(seen[t], reference.values)
            << threads << " threads, thread " << t;
      }
    }
  }
}

TEST(ShrinkAllPairs, WarmStoreRerunRecomputesNothing) {
  const std::string root =
      ::testing::TempDir() + "shrink_batch_warm_store";
  std::filesystem::remove_all(root);
  const Graph g = families::random_connected(12, 14, 74);

  store::DiskConfig disk_config;
  disk_config.root = root;

  // Cold run: one batched compute, persisted write-behind.
  const std::uint64_t before = shrink_all_pairs_compute_count();
  std::vector<std::uint32_t> cold_values;
  {
    cache::CacheConfig config;
    config.disk = std::make_shared<store::DiskStore>(disk_config);
    cache::ArtifactCache cache(config);
    cold_values = cache::cached_all_pairs_shrink(g, &cache)->values;
    EXPECT_EQ(shrink_all_pairs_compute_count(), before + 1);
    EXPECT_EQ(cache.stats().all_pairs_shrink.misses, 1u);
  }

  // Warm run in a fresh process image (new cache, same store): the
  // artifact decodes from disk — ZERO batched recomputes.
  {
    cache::CacheConfig config;
    config.disk = std::make_shared<store::DiskStore>(disk_config);
    cache::ArtifactCache cache(config);
    const auto warm = cache::cached_all_pairs_shrink(g, &cache);
    EXPECT_EQ(warm->values, cold_values);
    EXPECT_EQ(shrink_all_pairs_compute_count(), before + 1);
    EXPECT_EQ(config.disk->stats(store::Kind::kShrinkAllPairs).hits, 1u);
  }
  std::filesystem::remove_all(root);
}

TEST(ShrinkAllPairs, PairBfsCounterOnlyCountsPerPairCalls) {
  const Graph g = families::oriented_ring(6);
  const std::uint64_t pair_before = shrink_pair_bfs_count();
  const std::uint64_t batch_before = shrink_all_pairs_compute_count();
  (void)shrink_all_pairs(g);
  EXPECT_EQ(shrink_pair_bfs_count(), pair_before);
  EXPECT_EQ(shrink_all_pairs_compute_count(), batch_before + 1);
  (void)shrink(g, 0, 3);
  EXPECT_EQ(shrink_pair_bfs_count(), pair_before + 1);
}

}  // namespace
}  // namespace rdv::views
