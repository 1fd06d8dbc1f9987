#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// Shrink(u, v) — Definition 3.1: the smallest distance between
/// alpha(u) and alpha(v) over all port sequences alpha (applying the
/// SAME outgoing ports at both nodes). The feasibility characterization
/// (Corollary 3.1) is: a STIC [(u,v), delta] with symmetric u, v is
/// feasible iff delta >= Shrink(u, v).
namespace rdv::views {

struct ShrinkResult {
  /// The Shrink value. On a connected graph this is finite (the empty
  /// sequence already witnesses dist(u, v)); when u and v lie in
  /// different components every reachable pair stays split across them,
  /// so shrink == graph::kUnreachable, the witness is empty, and
  /// closest_u/closest_v are graph::kNoNode.
  std::uint32_t shrink = 0;
  /// A shortest-in-BFS-order port sequence achieving it (empty when
  /// unreachable).
  std::vector<graph::Port> witness;
  /// The closest reachable pair (alpha(u), alpha(v)); graph::kNoNode
  /// when unreachable.
  graph::Node closest_u = graph::kNoNode;
  graph::Node closest_v = graph::kNoNode;
  /// Number of ordered pairs explored by the product BFS (cost metric).
  std::uint64_t pairs_explored = 0;
};

/// Exact Shrink by BFS over the pair space {(alpha(u), alpha(v))}. A
/// port p is applicable at a pair (a, b) when p < min(deg(a), deg(b)) —
/// along symmetric pairs degrees always agree, so nothing is lost.
/// Cost: O(n^2 * max_degree) time, O(n^2) space.
[[nodiscard]] ShrinkResult shrink_with_witness(const graph::Graph& g,
                                               graph::Node u,
                                               graph::Node v);

/// Just the value.
[[nodiscard]] std::uint32_t shrink(const graph::Graph& g, graph::Node u,
                                   graph::Node v);

/// Shrink for every ordered pair of one graph, as a flat n x n table.
struct AllPairsShrink {
  std::uint32_t n = 0;
  /// values[u * n + v] = Shrink(u, v). Symmetric (Shrink(u, v) ==
  /// Shrink(v, u): swapping coordinates maps product walks onto product
  /// walks and dist is symmetric); diagonal is 0; cross-component pairs
  /// hold graph::kUnreachable.
  std::vector<std::uint32_t> values;
  /// Unordered pairs visited by the level sweep (cost metric, the
  /// batched analog of ShrinkResult::pairs_explored).
  std::uint64_t pairs_explored = 0;

  [[nodiscard]] std::uint32_t at(graph::Node u, graph::Node v) const {
    return values[static_cast<std::size_t>(u) * n + v];
  }
};

/// Batched all-pairs Shrink: a level-ordered backward closure over the
/// unordered pair space assigns Shrink(u, v) = d to every pair first
/// reached at level d. Level d is seeded by the not yet visited pairs
/// at distance exactly d, which a bit-parallel all-sources BFS (64
/// sources per uint64_t word, one row of words per node) yields one
/// level at a time; an n^2-bit visited matrix marks the pairs the
/// closure has reached. Each product edge is traversed once, so the
/// whole table costs O(n^2 * max_degree) — the price of ONE per-pair
/// product BFS — plus at most n * max_degree * n / 64 word ORs per BFS
/// level, fewer where the frontier is sparse.
/// shrink_with_witness remains the witness-reconstruction fallback and
/// the oracle this kernel is verified against.
[[nodiscard]] AllPairsShrink shrink_all_pairs(const graph::Graph& g);

/// Process-wide counters (monotone, thread-safe) so tests and CI can
/// assert the census path never falls back to per-pair product BFS and
/// that warm store runs recompute nothing.
[[nodiscard]] std::uint64_t shrink_pair_bfs_count() noexcept;
[[nodiscard]] std::uint64_t shrink_all_pairs_compute_count() noexcept;

}  // namespace rdv::views
