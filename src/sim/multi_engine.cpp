#include "sim/multi_engine.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::ITopology;
using graph::Node;
using graph::Port;
using support::kRoundInfinity;
using support::sat_add;

struct AgentState {
  Mailbox mailbox;
  std::optional<Proc> proc;
  Node pos = graph::kNoNode;
  /// Degree of `pos`, cached so a move costs two topology calls (its
  /// step and the new node's degree) instead of three, and a wait none.
  Port degree = 0;
  /// Position before this event's move; valid while `moved` is set.
  Node prev_pos = graph::kNoNode;
  Node start_node = graph::kNoNode;
  std::uint64_t start_round = 0;
  std::uint64_t busy_until = kRoundInfinity;
  Node move_target = graph::kNoNode;
  Port move_port = 0;
  Port move_entry = 0;
  bool started = false;
  bool finished = false;
  bool action_is_move = false;
  bool has_action = false;
  /// Set for the agents whose action completes this event.
  bool due = false;
  bool moved = false;
  std::uint64_t moves = 0;
  std::uint32_t zero_wait_spin = 0;
};

/// SoloWalk's move encoding: LEB128, seven bits per byte, low first.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  for (; x >= 0x80; x >>= 7) {
    out.push_back(static_cast<std::uint8_t>(x | 0x80));
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

class MultiRunner {
 public:
  /// With `walk` set the runner records the moves of its single agent
  /// there, and a lone agent does not count as gathered.
  MultiRunner(const ITopology& g, const MultiRunConfig& config,
              std::size_t k, SoloWalk* walk = nullptr)
      : g_(g), config_(config), agents_(k), walk_(walk) {
    if (config.record_trace) result_.trace.enable(config.trace_limit);
    result_.first_meeting.assign(k * k, kNever);
    result_.moves.assign(k, 0);
    result_.final_pos.assign(k, graph::kNoNode);
  }

  MultiRunResult run(const std::vector<AgentSpec>& specs) {
    const std::size_t k = agents_.size();
    std::size_t unspawned = k;
    std::uint64_t last_start = 0;
    for (std::size_t i = 0; i < k; ++i) {
      agents_[i].start_node = specs[i].start;
      agents_[i].start_round = specs[i].start_round;
      last_start = std::max(last_start, specs[i].start_round);
    }

    std::uint64_t round = 0;
    for (;;) {
      // Spawn agents whose starting round arrived.
      for (std::size_t i = 0; unspawned > 0 && i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.started && a.start_round == round) {
          --unspawned;
          a.started = true;
          a.pos = a.start_node;
          a.degree = g_.degree(a.pos);
          result_.trace.record(round, static_cast<std::uint8_t>(i), a.pos,
                               kNoPort);
          const Observation initial{a.degree, std::nullopt, 0};
          a.mailbox.set_initial(initial);
          a.proc.emplace(specs[i].program(a.mailbox, initial));
          a.proc->start();
          collect(i, round);
          if (!result_.ok()) return finish(round);
        }
      }

      // Meeting bookkeeping + termination checks.
      bool all_same = unspawned == 0 && walk_ == nullptr;
      bool stop_pair_met = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (!agents_[i].started) continue;
        if (agents_[i].pos != agents_[0].pos) all_same = false;
        for (std::size_t j = i + 1; j < k; ++j) {
          if (!agents_[j].started || agents_[i].pos != agents_[j].pos) {
            continue;
          }
          auto& cell = result_.first_meeting[i * k + j];
          if (cell == kNever) cell = round;
          if (static_cast<int>(i) == config_.stop_on_pair_a &&
              static_cast<int>(j) == config_.stop_on_pair_b) {
            stop_pair_met = true;
          }
        }
      }
      if (all_same) {
        result_.gathered = true;
        result_.gather_round_absolute = round;
        result_.gather_from_last_start = round - last_start;
        return finish(round);
      }
      if (stop_pair_met) return finish(round);

      // Next event; every agent started and finished ends the run.
      bool everything_done = unspawned == 0;
      std::uint64_t next = kRoundInfinity;
      for (const AgentState& a : agents_) {
        if (!a.started) {
          next = std::min(next, a.start_round);
        } else if (!a.finished) {
          everything_done = false;
          if (a.has_action) next = std::min(next, a.busy_until);
        }
      }
      if (everything_done) {
        result_.programs_finished = true;
        return finish(round);
      }
      if (next > config_.max_rounds || next == kRoundInfinity) {
        return finish(config_.max_rounds);
      }
      round = next;

      // Apply move completions (counting pairwise swaps through one
      // edge as each later mover lands), then resume.
      for (std::size_t i = 0; i < k; ++i) {
        AgentState& a = agents_[i];
        a.due = a.has_action && a.busy_until == round;
        a.moved = a.due && a.action_is_move;
        if (!a.moved) continue;
        a.prev_pos = a.pos;
        a.pos = a.move_target;
        a.degree = g_.degree(a.pos);
        ++a.moves;
        result_.trace.record(round, static_cast<std::uint8_t>(i), a.pos,
                             a.move_port);
        if (walk_ != nullptr) {
          put_varint(walk_->moves, round - last_move_round_);
          put_varint(walk_->moves, a.move_port);
          last_move_round_ = round;
        }
        for (std::size_t j = 0; j < i; ++j) {
          const AgentState& b = agents_[j];
          if (b.moved && b.pos == a.prev_pos && a.pos == b.prev_pos &&
              a.pos != b.pos) {
            ++result_.edge_crossings;
          }
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.due) continue;
        a.has_action = false;
        // Passed as a temporary: a local filled in field by field was
        // copied into the mailbox with one wide load over several narrow
        // stores, a store-forwarding stall on every event.
        a.mailbox.deliver_and_resume(Observation{
            a.degree,
            a.action_is_move ? std::optional<Port>(a.move_entry)
                             : std::nullopt,
            round - a.start_round});
        collect(i, round);
        if (!result_.ok()) return finish(round);
      }
    }
  }

 private:
  void collect(std::size_t i, std::uint64_t round) {
    AgentState& a = agents_[i];
    for (;;) {
      if (a.proc->done()) {
        try {
          a.proc->rethrow_if_failed();
        } catch (const std::exception& e) {
          std::ostringstream err;
          err << "agent " << i << " threw: " << e.what();
          result_.error = err.str();
        }
        a.finished = true;
        a.busy_until = kRoundInfinity;
        return;
      }
      if (!a.mailbox.has_pending()) {
        result_.error = "agent suspended without an action";
        a.finished = true;
        return;
      }
      const Action action = a.mailbox.take_action();
      if (action.kind == Action::Kind::kMove) {
        if (action.port >= a.degree) {
          std::ostringstream err;
          err << "agent " << i << " used port " << action.port
              << " at a degree-" << a.degree << " node";
          result_.error = err.str();
          a.finished = true;
          return;
        }
        const graph::Step s = g_.step(a.pos, action.port);
        a.move_target = s.to;
        a.move_port = action.port;
        a.move_entry = s.entry_port;
        a.action_is_move = true;
        a.has_action = true;
        a.busy_until = round + 1;
        a.zero_wait_spin = 0;
        return;
      }
      if (action.wait_rounds == 0) {
        if (++a.zero_wait_spin > config_.max_zero_wait_spin) {
          result_.error = "agent spun on zero-length waits";
          a.finished = true;
          return;
        }
        a.mailbox.deliver_and_resume(
            Observation{a.degree, std::nullopt, round - a.start_round});
        continue;
      }
      a.action_is_move = false;
      a.has_action = true;
      a.busy_until = sat_add(round, action.wait_rounds);
      a.zero_wait_spin = 0;
      return;
    }
  }

  MultiRunResult finish(std::uint64_t rounds) {
    result_.rounds_simulated = rounds;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      result_.moves[i] = agents_[i].moves;
      result_.final_pos[i] = agents_[i].pos;
    }
    return std::move(result_);
  }

  const ITopology& g_;
  const MultiRunConfig& config_;
  MultiRunResult result_;
  std::vector<AgentState> agents_;
  SoloWalk* walk_;
  std::uint64_t last_move_round_ = 0;
};

/// Reads a SoloWalk's moves back: `round` is the current move's landing
/// round, kNever once the walk is spent.
struct WalkReader {
  const std::uint8_t* at;
  const std::uint8_t* end;
  std::uint64_t round = 0;
  Port port = 0;

  explicit WalkReader(const SoloWalk& walk)
      : at(walk.moves.data()), end(at + walk.moves.size()) {
    next();
  }
  std::uint64_t varint() {
    std::uint64_t x = 0;
    for (unsigned shift = 0;; shift += 7) {
      x |= std::uint64_t{*at & 0x7Fu} << shift;
      if (*at++ < 0x80) return x;
    }
  }
  void next() {
    round = at == end ? kNever : round + varint();
    if (round != kNever) port = static_cast<Port>(varint());
  }
};

}  // namespace

MultiRunResult run_multi(const ITopology& g,
                         const std::vector<AgentSpec>& agents,
                         const MultiRunConfig& config) {
  // The meeting scan only visits ordered pairs (i < j); normalize the
  // stop pair so callers may pass it in either order.
  MultiRunConfig normalized = config;
  if (normalized.stop_on_pair_a > normalized.stop_on_pair_b) {
    std::swap(normalized.stop_on_pair_a, normalized.stop_on_pair_b);
  }
  MultiRunner runner(g, normalized, agents.size());
  return runner.run(agents);
}

SoloWalk record_walk(const ITopology& g, const AgentProgram& program,
                     Node start, const MultiRunConfig& config) {
  static obs::Counter& walks = obs::counter("sim.solo_walks");
  walks.add();
  const std::vector<AgentSpec> specs{AgentSpec{program, start, 0}};
  SoloWalk walk;
  MultiRunResult run = MultiRunner(g, config, 1, &walk).run(specs);
  if (!run.ok()) walk.error_round = run.rounds_simulated;
  walk.error = std::move(run.error);
  walk.finished = run.programs_finished;
  return walk;
}

SuccessorTable::SuccessorTable(const graph::Graph& g)
    : width(g.max_degree()), to(g.size() * width) {
  for (Node v = 0; v < g.size(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) to[v * width + p] = g.step(v, p).to;
  }
}

WalkMerge merge_walks(const SuccessorTable& g, const SoloWalk& earlier,
                      Node start_earlier, const SoloWalk& later,
                      Node start_later, std::uint64_t delay,
                      std::uint64_t max_rounds) {
  // The run covers the rounds before `end`: through the cap, or up to
  // the first error, which ends its round before the meeting check. A
  // recorded walk's error names agent 0; the later agent is agent 1.
  WalkMerge out;
  std::uint64_t end = sat_add(max_rounds, 1);
  if (earlier.error_round < end) {
    end = earlier.error_round;
    out.error = earlier.error;
  }
  if (sat_add(later.error_round, delay) < end) {
    end = later.error_round + delay;
    out.error = later.error;
    if (out.error.starts_with("agent 0 ")) out.error[6] = '1';
  }
  WalkReader a(earlier);
  WalkReader b(later);
  Node pos_a = start_earlier;
  Node pos_b = start_later;
  for (std::uint64_t round = delay; round < end;
       round = std::min(a.round, sat_add(b.round, delay))) {
    for (; a.round <= round; a.next()) pos_a = g.step(pos_a, a.port);
    for (; sat_add(b.round, delay) <= round; b.next()) {
      pos_b = g.step(pos_b, b.port);
    }
    if (pos_a == pos_b) {
      out = WalkMerge{true, round - delay, {}};
      break;
    }
  }
  return out;
}

}  // namespace rdv::sim
