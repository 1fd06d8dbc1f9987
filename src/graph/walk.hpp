#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/topology.hpp"

/// Path/walk helpers shared by the view machinery, Shrink computation,
/// and the algorithms (Section 2 of the paper).
namespace rdv::graph {

/// alpha(x) from Section 2: follow the sequence of outgoing port numbers
/// from x. Returns nullopt if some port is out of range at the node
/// reached (the sequence is then undefined at x).
[[nodiscard]] std::optional<Node> apply_ports(const ITopology& g, Node x,
                                              std::span<const Port> alpha);

/// Entry ports observed along apply_ports (one per step). Empty on
/// failure. reverse_path() consumes this to compute the paper's
/// "reverse path pi-bar".
[[nodiscard]] std::vector<Port> entry_ports_along(
    const ITopology& g, Node x, std::span<const Port> alpha);

/// Given the entry ports of a traversed path, the outgoing port sequence
/// that walks it backwards (Section 2's reverse path): the reversal of
/// the entry-port list.
[[nodiscard]] std::vector<Port> reverse_path(std::span<const Port> entry_ports);

}  // namespace rdv::graph
