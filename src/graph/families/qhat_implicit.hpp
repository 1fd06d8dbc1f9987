#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/families/qhat.hpp"
#include "graph/topology.hpp"

namespace rdv::graph::families {

/// Lazily materialized Q-hat-h (Section 4).
///
/// Explicit Q-hat-h has 1 + 2(3^h - 1) nodes — far beyond memory at the
/// theorem's regime h = 2D. Any T-round walk, however, touches at most
/// 2T + 1 nodes, so this topology interns nodes on demand: a node is its
/// root-relative direction string; leaf-to-leaf edges are resolved
/// combinatorially (rank/unrank of leaf paths in lexicographic order)
/// through the exact same `leaf_link` wiring rule as the explicit
/// generator, which the test suite cross-checks node by node.
///
/// The adjacency of every interned node is memoized: the first
/// traversal of an edge resolves it (interning the far end if new) and
/// records it in both directions, so a repeat `step` is an array load.
/// Memoizing never interns, so `materialized()` counts exactly the
/// nodes the walk so far has reached.
///
/// Supports h in [2, 39] (leaf ranks fit in uint64: 3^38 < 2^63).
class QhatImplicitTopology final : public ITopology {
 public:
  explicit QhatImplicitTopology(std::uint32_t h);

  [[nodiscard]] Port degree(Node v) const override;
  [[nodiscard]] Step step(Node v, Port p) const override;
  [[nodiscard]] std::string name() const override;

  /// The root r of the construction (node id 0).
  [[nodiscard]] Node root() const noexcept { return 0; }
  [[nodiscard]] std::uint32_t height() const noexcept { return h_; }

  /// Root-relative direction string of a materialized node.
  [[nodiscard]] const std::vector<Dir>& path_of(Node v) const;

  /// Node for a direction string (materializing it if needed). The
  /// string must be a valid simple tree path of length <= h.
  [[nodiscard]] Node node_at(std::span<const Dir> path) const;

  /// Number of nodes materialized so far (observability for tests and
  /// the T6 bench).
  [[nodiscard]] std::size_t materialized() const noexcept {
    return paths_.size();
  }

  /// 1-based lexicographic rank of a leaf path among leaves with the
  /// same final direction. Exposed for tests.
  [[nodiscard]] std::uint64_t leaf_rank(std::span<const Dir> path) const;

  /// Inverse of leaf_rank: the leaf path with the given final direction
  /// and 1-based rank. Exposed for tests.
  [[nodiscard]] std::vector<Dir> leaf_unrank(Dir last, std::uint64_t rank)
      const;

 private:
  [[nodiscard]] Node intern(const std::vector<Dir>& path) const;
  /// Computes step(v, p) from v's direction string.
  [[nodiscard]] Step resolve(Node v, Port p) const;
  [[nodiscard]] std::uint64_t completions(std::uint32_t remaining, Dir at,
                                          Dir last) const;

  std::uint32_t h_;
  std::uint64_t x_;  // leaves per type = 3^(h-1)
  // completions_[r][c][l]: number of valid direction strings of length r
  // appended after a position holding c such that the final direction is
  // l (r = 0: c == l). "Valid" = never stepping back toward the parent.
  std::vector<std::array<std::array<std::uint64_t, 4>, 4>> dp_;
  // Interning tables; mutated on traversal, hence mutable (the topology
  // is logically immutable — interning is a cache).
  mutable std::vector<std::vector<Dir>> paths_;
  mutable std::unordered_map<std::string, Node> index_;
  // adjacency_[v][p] = step(v, p) once resolved; `to == kNoNode` until
  // then. One row per interned node.
  mutable std::vector<std::array<Step, 4>> adjacency_;
};

}  // namespace rdv::graph::families
