#pragma once

#include <cstdint>
#include <vector>

#include "sim/agent.hpp"
#include "support/saturating.hpp"

/// Procedure Explore(u, d, delta) — Algorithm 2.
///
/// The agent, currently at some node u, traverses every path of length d
/// starting at u in lexicographic order of port sequences, each time
/// backtracking along the reverse path and then waiting delta - d
/// rounds at u. Each iteration costs exactly d + delta rounds
/// (2d moves + (delta - d) wait), matching the accounting of Lemma 3.2.
namespace rdv::core {

/// Budget discipline shared by the procedures (DESIGN.md "budget-exact
/// phases"): a procedure run under a finite `end_clock` never lets the
/// agent's local clock pass it and always returns with the agent at the
/// node where the procedure started.
inline constexpr std::uint64_t kNoDeadline = support::kRoundInfinity;

/// Runs Explore at the agent's current node. Requires delta >= d.
/// With a finite end_clock, stops before any iteration that would not
/// fit (counting `reserve` rounds the caller needs to get the agent
/// home afterwards) and sets *completed = false; the agent is back at u
/// either way.
[[nodiscard]] sim::Proc explore(sim::Mailbox& mb, std::uint32_t d,
                                std::uint64_t delta,
                                std::uint64_t end_clock,
                                std::uint64_t reserve, bool* completed);

}  // namespace rdv::core
