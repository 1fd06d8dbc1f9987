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

std::vector<Port> entry_ports_along(const ITopology& g, Node x,
                                    std::span<const Port> alpha) {
  std::vector<Port> entries;
  entries.reserve(alpha.size());
  Node v = x;
  for (Port p : alpha) {
    if (p >= g.degree(v)) return {};
    const Step s = g.step(v, p);
    entries.push_back(s.entry_port);
    v = s.to;
  }
  return entries;
}

std::vector<Port> reverse_path(std::span<const Port> entry_ports) {
  return {entry_ports.rbegin(), entry_ports.rend()};
}

}  // namespace rdv::graph
