#pragma once

#include <optional>
#include <span>

#include "graph/topology.hpp"

/// Path/walk helpers shared by the view machinery, Shrink computation,
/// and the algorithms (Section 2 of the paper).
namespace rdv::graph {

/// alpha(x) from Section 2: follow the sequence of outgoing port numbers
/// from x. Returns nullopt if some port is out of range at the node
/// reached (the sequence is then undefined at x).
[[nodiscard]] std::optional<Node> apply_ports(const ITopology& g, Node x,
                                              std::span<const Port> alpha);

}  // namespace rdv::graph
