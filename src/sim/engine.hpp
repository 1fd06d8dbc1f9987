#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "graph/topology.hpp"
#include "sim/agent.hpp"
#include "sim/multi_engine.hpp"
#include "sim/trace.hpp"

/// Synchronous two-agent rendezvous engine (the model of Section 1).
///
/// The earlier agent appears at its start node at absolute round 0, the
/// later agent at absolute round `delay`; each agent's local clock
/// starts at its own appearance. Rendezvous happens when both agents
/// occupy the same node in the same round; agents crossing the same
/// edge in opposite directions do NOT meet (but the engine counts such
/// crossings for diagnostics). The reported rendezvous time is counted
/// from the later agent's start, the paper's cost measure.
namespace rdv::sim {

struct RunResult {
  bool met = false;
  /// Absolute round of the meeting (valid when met).
  std::uint64_t meet_round_absolute = 0;
  /// Rounds from the later agent's start to the meeting — the paper's
  /// rendezvous time (valid when met).
  std::uint64_t meet_from_later_start = 0;
  /// Absolute rounds actually simulated.
  std::uint64_t rounds_simulated = 0;
  /// Times the agents swapped positions through one edge in one round.
  std::uint64_t edge_crossings = 0;
  std::array<std::uint64_t, 2> moves{0, 0};
  std::array<graph::Node, 2> final_pos{graph::kNoNode, graph::kNoNode};
  /// Both agent programs ran to completion without meeting (they halt
  /// in place forever; a meet can still have happened earlier).
  bool programs_finished = false;
  /// Diagnostics: nonempty if a program misbehaved (threw, spun on
  /// zero-length waits, or used an out-of-range port).
  std::string error;
  Trace trace;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs `program_earlier` from `start_earlier` (appearing at round 0)
/// and `program_later` from `start_later` (appearing at round `delay`).
/// For the anonymous model pass the same program twice (see
/// run_anonymous).
[[nodiscard]] RunResult run_pair(const graph::ITopology& g,
                                 const AgentProgram& program_earlier,
                                 const AgentProgram& program_later,
                                 graph::Node start_earlier,
                                 graph::Node start_later,
                                 std::uint64_t delay,
                                 const RunConfig& config = {});

/// The paper's setting: both agents execute the same deterministic
/// program; the STIC is [(start_earlier, start_later), delay].
[[nodiscard]] RunResult run_anonymous(const graph::ITopology& g,
                                      const AgentProgram& program,
                                      graph::Node start_earlier,
                                      graph::Node start_later,
                                      std::uint64_t delay,
                                      const RunConfig& config = {});

}  // namespace rdv::sim
