#include "sim/engine.hpp"

#include "sim/multi_engine.hpp"

namespace rdv::sim {

// The two-agent engine is the k = 2 specialization of run_multi, where
// the pair's first meeting is a gathering and ends the run. All Section
// 1 semantics (meeting = same node same round, unnoticed crossings,
// time from the later agent's start) live in MultiRunner.
RunResult run_pair(const graph::ITopology& g,
                   const AgentProgram& program_earlier,
                   const AgentProgram& program_later, graph::Node start_earlier,
                   graph::Node start_later, std::uint64_t delay,
                   const RunConfig& config) {
  std::vector<AgentSpec> specs;
  specs.push_back(AgentSpec{program_earlier, start_earlier, 0});
  specs.push_back(AgentSpec{program_later, start_later, delay});
  MultiRunResult multi = run_multi(g, specs, config);

  RunResult out;
  const std::uint64_t meeting = multi.meeting_of(0, 1, 2);
  out.met = meeting != kNever;
  if (out.met) {
    out.meet_round_absolute = meeting;
    out.meet_from_later_start = meeting - delay;
  }
  out.rounds_simulated = multi.rounds_simulated;
  out.edge_crossings = multi.edge_crossings;
  out.moves = {multi.moves[0], multi.moves[1]};
  out.final_pos = {multi.final_pos[0], multi.final_pos[1]};
  out.programs_finished = multi.programs_finished;
  out.error = std::move(multi.error);
  out.trace = std::move(multi.trace);
  return out;
}

RunResult run_anonymous(const graph::ITopology& g, const AgentProgram& program,
                        graph::Node start_earlier, graph::Node start_later,
                        std::uint64_t delay, const RunConfig& config) {
  return run_pair(g, program, program, start_earlier, start_later, delay,
                  config);
}

}  // namespace rdv::sim
