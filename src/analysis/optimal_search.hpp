#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stics.hpp"
#include "graph/graph.hpp"
#include "sim/agent.hpp"

/// Exhaustive search over oblivious deterministic algorithms.
///
/// An oblivious algorithm is a fixed action string: per round, wait or
/// "take port k" (applied modulo the current degree). For SYMMETRIC
/// starting positions this class is exactly as powerful as general
/// deterministic algorithms (both agents observe identical histories
/// until they meet — the argument of Lemma 3.1 — so any algorithm's
/// realized behaviour on the STIC is one such string); on the
/// port-homogeneous Q-hat graphs this holds for all positions (proof of
/// Theorem 4.1). The search therefore yields exact optima for T6 and
/// exhaustive infeasibility certificates for T7.
///
/// State space: (earlier position, later position, delta in-flight
/// actions); the search is a BFS, so the first meeting state gives the
/// minimum rendezvous time, and draining the finite space without
/// meeting PROVES that no oblivious algorithm ever meets.
namespace rdv::analysis {

enum class OptimalOutcome : std::uint8_t {
  kMet,                ///< Minimum meeting time found.
  kProvenInfeasible,   ///< Reachable state space drained without a meet.
  kHorizonExceeded,    ///< Search stopped at the round horizon.
};

/// One step of an oblivious action string (the searcher's alphabet):
/// 0 = wait, 1 + k = "take port k mod degree".
using ObliviousAction = std::uint64_t;

struct OptimalResult {
  OptimalOutcome outcome = OptimalOutcome::kHorizonExceeded;
  /// Rounds from the later agent's start (valid when kMet).
  std::uint64_t rounds = 0;
  std::uint64_t states_explored = 0;
  /// When requested (config.want_witness) and kMet: a shortest action
  /// string realizing the meeting. Its length is delay + rounds: the
  /// earlier agent executes it from round 0, the later from round
  /// `delay`.
  std::vector<ObliviousAction> witness;
};

struct OptimalSearchConfig {
  /// Stop exploring past this many rounds from the later agent's start.
  std::uint64_t horizon = 64;
  /// Hard cap on the state space n^2 * alphabet^delay (guards memory).
  std::uint64_t max_states = std::uint64_t{1} << 28;
  /// Record parent pointers and reconstruct a witness string (costs
  /// O(states) extra memory).
  bool want_witness = false;
};

/// Minimum rendezvous time over oblivious algorithms for
/// [(u, v), delay]. Throws std::invalid_argument when the state space
/// exceeds config.max_states.
[[nodiscard]] OptimalResult optimal_oblivious(
    const graph::Graph& g, graph::Node u, graph::Node v,
    std::uint64_t delay, const OptimalSearchConfig& config = {});

/// Turns an oblivious action string into an agent program (executes the
/// string, then halts in place). Used to replay witnesses through the
/// engine — the searcher and the simulator must agree.
[[nodiscard]] sim::AgentProgram oblivious_program(
    std::vector<ObliviousAction> actions);

}  // namespace rdv::analysis
