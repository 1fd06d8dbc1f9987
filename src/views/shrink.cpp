#include "views/shrink.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <queue>

namespace rdv::views {

using graph::Graph;
using graph::Node;
using graph::Port;

namespace {

std::atomic<std::uint64_t> pair_bfs_runs{0};
std::atomic<std::uint64_t> all_pairs_runs{0};

/// Sentinel "no parent yet" marker for the flat parent table.
constexpr std::uint64_t kNoPair = static_cast<std::uint64_t>(-1);

}  // namespace

ShrinkResult shrink_with_witness(const Graph& g, Node u, Node v) {
  pair_bfs_runs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = g.size();
  const auto pair_id = [n](Node a, Node b) -> std::uint64_t {
    return static_cast<std::uint64_t>(a) * n + b;
  };

  // Product BFS over ordered pairs; parent pointers (pair, port) let us
  // reconstruct the witness sequence. n^2 is known up front, so the
  // parent table is a flat vector keyed by pair id, not a hash map.
  struct Parent {
    std::uint64_t from = kNoPair;
    Port port = 0;
  };
  std::vector<Parent> parents(n * n);
  std::queue<std::uint64_t> queue;
  const std::uint64_t start = pair_id(u, v);
  parents[start] = Parent{start, 0};
  queue.push(start);

  // Distances to every node from every *distinct second coordinate* we
  // meet would be wasteful; instead gather reachable pairs first, then
  // BFS per distinct first coordinate.
  std::vector<std::uint64_t> reachable;
  while (!queue.empty()) {
    const std::uint64_t id = queue.front();
    queue.pop();
    reachable.push_back(id);
    const Node a = static_cast<Node>(id / n);
    const Node b = static_cast<Node>(id % n);
    const Port common = std::min(g.degree(a), g.degree(b));
    for (Port p = 0; p < common; ++p) {
      const Node a2 = g.step(a, p).to;
      const Node b2 = g.step(b, p).to;
      const std::uint64_t id2 = pair_id(a2, b2);
      if (parents[id2].from == kNoPair) {
        parents[id2] = Parent{id, p};
        queue.push(id2);
      }
    }
  }

  // Minimum distance over reachable pairs, grouped by first coordinate
  // so each BFS is reused.
  std::sort(reachable.begin(), reachable.end());
  ShrinkResult out;
  out.shrink = graph::kUnreachable;
  out.pairs_explored = reachable.size();
  std::uint64_t best_pair = start;
  std::vector<std::uint32_t> dist;
  Node dist_source = graph::kNoNode;
  for (const std::uint64_t id : reachable) {
    const Node a = static_cast<Node>(id / n);
    const Node b = static_cast<Node>(id % n);
    if (a != dist_source) {
      dist = graph::bfs_distances(g, a);
      dist_source = a;
    }
    if (dist[b] < out.shrink) {
      out.shrink = dist[b];
      best_pair = id;
      if (out.shrink == 0) break;
    }
  }

  if (out.shrink == graph::kUnreachable) {
    // Disconnected input: the two coordinates stay in their own
    // components under every port sequence, so no reachable pair is at
    // finite distance. Per the ShrinkResult contract there is no
    // closest pair and no witness.
    return out;
  }

  // Reconstruct the witness port sequence.
  out.closest_u = static_cast<Node>(best_pair / n);
  out.closest_v = static_cast<Node>(best_pair % n);
  std::uint64_t cursor = best_pair;
  while (cursor != start) {
    const Parent& p = parents[cursor];
    out.witness.push_back(p.port);
    cursor = p.from;
  }
  std::reverse(out.witness.begin(), out.witness.end());
  return out;
}

std::uint32_t shrink(const Graph& g, Node u, Node v) {
  return shrink_with_witness(g, u, v).shrink;
}

AllPairsShrink shrink_all_pairs(const Graph& g) {
  all_pairs_runs.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t n = g.size();
  AllPairsShrink out;
  out.n = n;
  out.values.assign(static_cast<std::size_t>(n) * n, graph::kUnreachable);
  if (n == 0) return out;
  // Swapping coordinates maps product walks onto product walks and dist
  // is symmetric, so Shrink(u, v) == Shrink(v, u): the sweep fills the
  // upper triangle values[a * n + b], a <= b, and mirrors it at the end.
  const auto cell = [n](Node a, Node b) {
    return static_cast<std::size_t>(a) * n + b;
  };

  // Reverse product adjacency as a flat CSR keyed by (node, port):
  // rev_nodes[rev_off[x*maxdeg+p] ..] = all a with succ(a, p) == x. The
  // ordered predecessors of a pair (a', b') under port p are exactly
  // rev[a'][p] x rev[b'][p] (p is applicable at a predecessor iff both
  // nodes own port p, which membership implies). Bit p of x's row in
  // `ports` is set when rev[x][p] is non-empty, so a pair visits only
  // the ports both of its nodes can be entered by.
  const Port maxdeg = g.max_degree();
  const std::size_t port_words = (static_cast<std::size_t>(maxdeg) + 63) / 64;
  std::vector<std::uint32_t> rev_off(
      static_cast<std::size_t>(n) * maxdeg + 1, 0);
  std::vector<std::uint64_t> ports(static_cast<std::size_t>(n) * port_words);
  for (Node a = 0; a < n; ++a)
    for (Port p = 0; p < g.degree(a); ++p) {
      const Node x = g.step(a, p).to;
      ++rev_off[static_cast<std::size_t>(x) * maxdeg + p + 1];
      ports[x * port_words + p / 64] |= std::uint64_t{1} << (p % 64);
    }
  for (std::size_t i = 1; i < rev_off.size(); ++i) rev_off[i] += rev_off[i - 1];
  std::vector<Node> rev_nodes(rev_off.back());
  {
    std::vector<std::uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
    for (Node a = 0; a < n; ++a)
      for (Port p = 0; p < g.degree(a); ++p)
        rev_nodes[cursor[static_cast<std::size_t>(g.step(a, p).to) * maxdeg +
                         p]++] = a;
  }
  // Forward adjacency as a flat CSR for the distance BFS.
  std::vector<std::uint32_t> adj_off(n + 1, 0);
  for (Node v = 0; v < n; ++v) adj_off[v + 1] = adj_off[v] + g.degree(v);
  std::vector<Node> adj(adj_off.back());
  for (Node v = 0; v < n; ++v)
    for (Port p = 0; p < g.degree(v); ++p) adj[adj_off[v] + p] = g.step(v, p).to;

  // n x n bit matrices, one row of `words` words per node. seen,
  // frontier and next run the BFS from every source at once (Then et
  // al., "The More the Merrier", VLDB 2014), 64 sources per word: bit a
  // of row b is set in seen once dist(a, b) is known, in frontier when
  // it is the last level, in next when it is the level being built.
  // Bit k of a row's *_live words marks its non-zero word k, so a level
  // touches only words its sources reach: a ring's frontier row holds
  // two sources, not n / 64 words of them. Words outside the mask keep
  // bits of older levels; a neighbour of the row has already seen those
  // sources, so the ~seen mask drops them and no word is ever cleared.
  // Bit a of row b in visited, a <= b, marks the pair the closure below
  // has reached.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  const std::size_t matrix = static_cast<std::size_t>(n) * words;
  const std::size_t live_words = (words + 63) / 64;
  std::vector<std::uint64_t> seen(matrix);
  std::vector<std::uint64_t> frontier(matrix);
  std::vector<std::uint64_t> next(matrix);
  std::vector<std::uint64_t> frontier_live(n * live_words);
  std::vector<std::uint64_t> next_live(n * live_words);
  std::vector<std::uint64_t> visited(matrix);
  const auto bit = [](Node x) { return std::uint64_t{1} << (x % 64); };

  // Level-ordered backward closure over the pair space. Level d is
  // seeded by the unvisited pairs at distance exactly d, which the BFS
  // yields as it advances; every pair that reaches a seed under some
  // common port sequence, and is not yet visited, also gets d.
  // Processing levels in increasing d keeps the assignment exact: any
  // pair that can reach some pair at distance d' < d was already
  // finalized while level d' drained, so a pair first reached at level
  // d has minimum reachable distance exactly d. Within a level the
  // order does not matter, so the pending pairs form a stack, drained
  // before the next level; entries are packed (a << 32) | b, a <= b.
  // Each product edge is traversed once, giving the O(n^2 * max_degree)
  // total.
  std::vector<std::uint64_t> pending;
  const auto reach = [&](Node a, Node b, std::uint32_t d) {
    visited[static_cast<std::size_t>(b) * words + a / 64] |= bit(a);
    out.values[cell(a, b)] = d;
    pending.push_back(static_cast<std::uint64_t>(a) << 32 | b);
  };
  for (Node a = 0; a < n; ++a) {
    seen[a * words + a / 64] = frontier[a * words + a / 64] = bit(a);
    frontier_live[a * live_words + a / 64 / 64] = bit(a / 64);
    reach(a, a, 0);
  }
  std::uint64_t explored = 0;
  for (std::uint32_t d = 0;;) {
    while (!pending.empty()) {
      const std::uint64_t pair = pending.back();
      pending.pop_back();
      ++explored;
      const auto a2 = static_cast<Node>(pair >> 32);
      const auto b2 = static_cast<Node>(pair);
      const std::uint32_t* a_off =
          &rev_off[static_cast<std::size_t>(a2) * maxdeg];
      const std::uint32_t* b_off =
          &rev_off[static_cast<std::size_t>(b2) * maxdeg];
      for (std::size_t k = 0; k < port_words; ++k)
        for (std::uint64_t common = ports[a2 * port_words + k] &
                                    ports[b2 * port_words + k];
             common != 0; common &= common - 1) {
          const std::size_t p = k * 64 + std::countr_zero(common);
          for (std::uint32_t i = a_off[p]; i < a_off[p + 1]; ++i)
            for (std::uint32_t j = b_off[p]; j < b_off[p + 1]; ++j) {
              const auto [a, b] = std::minmax(rev_nodes[i], rev_nodes[j]);
              if ((visited[b * words + a / 64] & bit(a)) == 0) reach(a, b, d);
            }
        }
    }

    // Advance the BFS one level; the new (a, b) with a <= b not yet
    // visited seed level d + 1.
    ++d;
    std::uint64_t any = 0;
    for (Node b = 0; b < n; ++b) {
      std::uint64_t* row = &next[b * words];
      std::uint64_t* row_live = &next_live[b * live_words];
      std::uint64_t* seen_row = &seen[b * words];
      const std::uint64_t* vis_row = &visited[b * words];
      for (std::size_t j = 0; j < live_words; ++j) {
        std::uint64_t live = 0;
        for (std::uint32_t i = adj_off[b]; i < adj_off[b + 1]; ++i)
          live |= frontier_live[adj[i] * live_words + j];
        row_live[j] = 0;
        for (; live != 0; live &= live - 1) {
          const std::size_t k = j * 64 + std::countr_zero(live);
          std::uint64_t acc = 0;
          for (std::uint32_t i = adj_off[b]; i < adj_off[b + 1]; ++i)
            acc |= frontier[adj[i] * words + k];
          acc &= ~seen_row[k];
          if (acc == 0) continue;
          seen_row[k] |= acc;
          row[k] = acc;
          row_live[j] |= bit(static_cast<Node>(k));
          if (k > b / 64) continue;
          std::uint64_t fresh = acc & ~vis_row[k];
          if (k == b / 64) fresh &= ~std::uint64_t{0} >> (63 - b % 64);
          for (; fresh != 0; fresh &= fresh - 1)
            reach(static_cast<Node>(k * 64 + std::countr_zero(fresh)), b, d);
        }
        any |= row_live[j];
      }
    }
    if (any == 0) break;
    frontier.swap(next);
    frontier_live.swap(next_live);
  }
  out.pairs_explored = explored;

  // Mirror the triangle onto the lower half in 64 x 64 tiles, so each
  // tile's strided reads stay in L1 (cross-component pairs stay
  // kUnreachable on both sides).
  for (Node a0 = 0; a0 < n; a0 += 64)
    for (Node b0 = a0; b0 < n; b0 += 64)
      for (Node b = b0; b < std::min<Node>(b0 + 64, n); ++b)
        for (Node a = a0; a < std::min<Node>({a0 + 64, n, b}); ++a)
          out.values[cell(b, a)] = out.values[cell(a, b)];
  return out;
}

std::uint64_t shrink_pair_bfs_count() noexcept {
  return pair_bfs_runs.load(std::memory_order_relaxed);
}

std::uint64_t shrink_all_pairs_compute_count() noexcept {
  return all_pairs_runs.load(std::memory_order_relaxed);
}

}  // namespace rdv::views
