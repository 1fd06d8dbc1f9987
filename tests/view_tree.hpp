#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "graph/graph.hpp"

/// Explicit truncated views V(v, G) (Section 2 / Yamashita–Kameda).
///
/// The refinement oracle (views/refinement.hpp) is the production
/// symmetry test; explicit views exist to cross-validate it in tests.
namespace rdv::views {
namespace detail {

inline void encode_view(const graph::Graph& g, graph::Node v,
                        std::uint32_t depth, std::ostringstream& out) {
  out << '(' << g.degree(v) << ':';
  if (depth > 0) {
    for (const graph::HalfEdge& e : g.edges(v)) {
      out << '[' << e.rev_port << ']';
      encode_view(g, e.to, depth - 1, out);
    }
  }
  out << ')';
}

}  // namespace detail

/// Canonical serialization of the view from v truncated at `depth`
/// edges. Two nodes have equal depth-D views iff their encodings are
/// equal. Encoding: "(d:" + for each port p in order, the reverse port
/// and the child encoding + ")". Cost is Theta((max degree)^depth) — use
/// small depths.
[[nodiscard]] inline std::string view_encoding(const graph::Graph& g,
                                               graph::Node v,
                                               std::uint32_t depth) {
  std::ostringstream out;
  detail::encode_view(g, v, depth, out);
  return out.str();
}

/// True iff the depth-D views of u and v are equal.
[[nodiscard]] inline bool views_equal_to_depth(const graph::Graph& g,
                                               graph::Node u, graph::Node v,
                                               std::uint32_t depth) {
  return view_encoding(g, u, depth) == view_encoding(g, v, depth);
}

}  // namespace rdv::views
