#include "core/explore.hpp"

#include <stdexcept>

namespace rdv::core {

using sim::Mailbox;
using sim::Observation;
using sim::Proc;

Proc explore(Mailbox& mb, std::uint32_t d, std::uint64_t delta,
             std::uint64_t end_clock, std::uint64_t reserve,
             bool* completed) {
  if (delta < d) {
    throw std::invalid_argument("explore: requires delta >= d");
  }
  *completed = false;
  if (d == 0) {
    // Degenerate single empty path: the iteration is a pure wait.
    if (end_clock == kNoDeadline ||
        mb.clock() + delta + reserve <= end_clock) {
      if (delta > 0) co_await mb.wait(delta);
      *completed = true;
    }
    co_return;
  }

  std::vector<graph::Port> path(d, 0);      // current port sequence
  std::vector<graph::Port> degrees(d, 0);   // degree before step i
  std::vector<graph::Port> entries(d, 0);   // entry ports of traversal
  const std::uint64_t iteration_cost = static_cast<std::uint64_t>(d) + delta;

  for (;;) {
    if (end_clock != kNoDeadline &&
        mb.clock() + iteration_cost + reserve > end_clock) {
      co_return;  // would overrun; agent is at u
    }
    // Traverse the path, recording degrees (for the lexicographic
    // successor) and entry ports (for the reverse path).
    for (std::uint32_t i = 0; i < d; ++i) {
      degrees[i] = mb.last().degree;
      const Observation o = co_await mb.move(path[i]);
      entries[i] = *o.entry_port;
    }
    // Reverse path back to u.
    for (std::uint32_t i = d; i-- > 0;) {
      co_await mb.move(entries[i]);
    }
    if (delta > d) co_await mb.wait(delta - d);

    // Lexicographic successor under the discovered degrees; prefix
    // degrees stay valid because the prefix nodes are unchanged.
    std::uint32_t i = d;
    while (i-- > 0) {
      if (path[i] + 1 < degrees[i]) {
        ++path[i];
        for (std::uint32_t j = i + 1; j < d; ++j) path[j] = 0;
        break;
      }
      if (i == 0) {
        *completed = true;
        co_return;
      }
    }
  }
}

}  // namespace rdv::core
