#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "sim/agent.hpp"
#include "sim/trace.hpp"

/// k-agent synchronous engine — the substrate for the paper's
/// "gathering" generalization (Section 1 cites [25, 37, 43]): several
/// anonymous agents with adversarial starting rounds; gathering is all
/// of them at one node in one round. The two-agent engine
/// (sim/engine.hpp) is a thin wrapper over this runner.
namespace rdv::sim {

struct AgentSpec {
  AgentProgram program;
  graph::Node start = 0;
  std::uint64_t start_round = 0;
};

struct MultiRunConfig {
  std::uint64_t max_rounds = 1'000'000;
  std::uint32_t max_zero_wait_spin = 1u << 20;
  bool record_trace = false;
  std::size_t trace_limit = 4096;
  /// Stop as soon as the given pair (indices into the spec vector) has
  /// met; -1 disables. Used by the pairwise wrapper.
  int stop_on_pair_a = -1;
  int stop_on_pair_b = -1;
};

inline constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);

struct MultiRunResult {
  /// All agents present at the same node in the same round.
  bool gathered = false;
  std::uint64_t gather_round_absolute = 0;
  /// Rounds from the LAST agent's start to the gathering.
  std::uint64_t gather_from_last_start = 0;
  /// first_meeting[i * k + j] (i < j): absolute round agents i and j
  /// first shared a node (both present), or kNever.
  std::vector<std::uint64_t> first_meeting;
  std::uint64_t rounds_simulated = 0;
  std::uint64_t edge_crossings = 0;
  std::vector<std::uint64_t> moves;
  std::vector<graph::Node> final_pos;
  bool programs_finished = false;
  std::string error;
  Trace trace;

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] std::uint64_t meeting_of(std::size_t i, std::size_t j,
                                         std::size_t k) const {
    if (i > j) std::swap(i, j);
    return first_meeting[i * k + j];
  }
};

/// Runs all agents; terminates on gathering, on the configured pair
/// meeting, on every program finishing, or at the round cap.
[[nodiscard]] MultiRunResult run_multi(const graph::ITopology& g,
                                       const std::vector<AgentSpec>& agents,
                                       const MultiRunConfig& config = {});

/// One agent's walk alone, from its start up to the round cap. Agents
/// see only degrees, entry ports and their own clocks (Section 1), so
/// until a meeting each agent of a pair walks as it would alone, and
/// agents with equal views (Section 2) walk alike.
struct SoloWalk {
  /// Per move, the LEB128 varints of the rounds since the previous
  /// move landed (or since the start) and of the port taken.
  std::vector<std::uint8_t> moves;
  /// Local round and message (naming agent 0) of a program error within
  /// the cap; kNever and empty without one.
  std::uint64_t error_round = kNever;
  std::string error;
  /// The program returned: the agent stays at its last node.
  bool finished = false;
};

/// Records `program`'s solo walk from `start` on the run_multi event
/// loop, under `config`'s round cap and zero-wait spin limit.
[[nodiscard]] SoloWalk record_walk(const graph::ITopology& g,
                                   const AgentProgram& program,
                                   graph::Node start,
                                   const MultiRunConfig& config);

/// One graph's moves as a flat table, built once per graph: port p from
/// v leads to to[v * width + p]. merge_walks replays moves through it,
/// one load each instead of a virtual ITopology::step.
struct SuccessorTable {
  explicit SuccessorTable(const graph::Graph& g);

  [[nodiscard]] graph::Node step(graph::Node v, graph::Port p) const {
    return to[static_cast<std::size_t>(v) * width + p];
  }

  std::size_t width = 0;
  std::vector<graph::Node> to;
};

/// run_anonymous's verdict on one STIC.
struct WalkMerge {
  bool met = false;
  std::uint64_t meet_from_later_start = 0;
  std::string error;
};

/// Decides the STIC [(start_earlier, start_later), delay] from the two
/// agents' solo walks, recorded with caps of at least `max_rounds`, as
/// run_pair would: the meeting is the first round in [delay, max_rounds]
/// with both agents on one node, unless a program error (the earlier
/// agent's on a tie) ends the run first.
[[nodiscard]] WalkMerge merge_walks(const SuccessorTable& g,
                                    const SoloWalk& earlier,
                                    graph::Node start_earlier,
                                    const SoloWalk& later,
                                    graph::Node start_later,
                                    std::uint64_t delay,
                                    std::uint64_t max_rounds);

}  // namespace rdv::sim
