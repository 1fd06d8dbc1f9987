#include "graph/walk.hpp"

namespace rdv::graph {

std::optional<Node> apply_ports(const ITopology& g, Node x,
                                std::span<const Port> alpha) {
  Node v = x;
  for (Port p : alpha) {
    if (p >= g.degree(v)) return std::nullopt;
    v = g.step(v, p).to;
  }
  return v;
}

}  // namespace rdv::graph
