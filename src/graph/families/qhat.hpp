#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

/// The lower-bound construction of Section 4 (Figure 1, Theorem 4.1).
///
/// Qh is the tree of height h whose non-leaf nodes have degree 4 with
/// ports labeled by cardinal directions N,E,S,W; every edge carries
/// opposite directions (N-S or E-W) at its two extremities. Q-hat-h
/// adds edges between the leaves (partner edges Ni-Si / Ei-Wi plus four
/// alternating cycles) so that every node has degree 4 and every pair of
/// nodes is symmetric.
namespace rdv::graph::families {

/// Direction = port number: all Q-hat nodes have degree 4 and their
/// ports follow this fixed convention.
enum class Dir : std::uint8_t { N = 0, E = 1, S = 2, W = 3 };

[[nodiscard]] constexpr Port to_port(Dir d) noexcept {
  return static_cast<Port>(d);
}
[[nodiscard]] constexpr Dir opposite(Dir d) noexcept {
  return static_cast<Dir>((static_cast<std::uint8_t>(d) + 2) % 4);
}

/// Number of nodes of Q-hat-h: 1 + 2(3^h - 1). Saturates (uint64) for
/// h > 40.
[[nodiscard]] std::uint64_t qhat_size(std::uint32_t h);

/// Leaves per type: x = 3^(h-1).
[[nodiscard]] std::uint64_t qhat_leaves_per_type(std::uint32_t h);

/// Where a leaf-to-leaf port leads (the Section 4 wiring, shared between
/// the explicit and the implicit generator so both provably agree).
struct LeafLink {
  Dir type;             ///< Type of the target leaf.
  std::uint64_t index;  ///< 1-based index of the target within its type.
  Dir entry;            ///< Port by which the target is entered.
};

/// For the leaf with the given `type` and 1-based `index` (of `x` =
/// 3^(h-1) leaves per type), resolves the non-parent port `port`
/// (which must differ from `type`, the port of the tree edge).
///
/// Wiring per the paper: partner edges Ni--Si (ports S/N) and Ei--Wi
/// (ports W/E); two alternating cycles per axis with ports E(at the
/// earlier element)/W for the N/S axis and N/S for the E/W axis; the
/// closing edge of each cycle joins the last and first element of the
/// same type.
[[nodiscard]] LeafLink leaf_link(Dir type, std::uint64_t index,
                                 std::uint64_t x, Dir port);

/// Explicit Q-hat-h together with construction metadata for tests and
/// the Figure-1 bench.
struct QhatGraph {
  Graph graph;
  std::uint32_t h = 0;
  Node root = 0;
  /// leaves_by_type[d][i-1] = node id of the i-th leaf of type d, in
  /// lexicographic order of root-to-leaf direction strings.
  std::vector<std::vector<Node>> leaves_by_type;
  /// Root-to-node direction strings, indexed by node id.
  std::vector<std::vector<Dir>> node_paths;
};

/// Builds the explicit graph; h must be in [2, 9] (size 1+2(3^9-1) =
/// 39365 at the top).
[[nodiscard]] QhatGraph qhat_explicit(std::uint32_t h);

/// The set Z of Section 4: nodes (gamma gamma)(root) for all gamma over
/// {N, E}^k, in lexicographic order of gamma. Valid on any topology
/// following the direction/port convention with height >= 2k.
[[nodiscard]] std::vector<Node> qhat_z_set(const ITopology& g, Node root,
                                           std::uint32_t k);

/// The corresponding midpoints M(v) = gamma(root), in the same order.
[[nodiscard]] std::vector<Node> qhat_mid_set(const ITopology& g, Node root,
                                             std::uint32_t k);

/// Enumerates gamma over {N,E}^k in lexicographic order as port strings.
[[nodiscard]] std::vector<std::vector<Port>> qhat_gamma_strings(
    std::uint32_t k);

}  // namespace rdv::graph::families
