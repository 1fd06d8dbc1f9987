// Gathering infrastructure: the paper's Section 1 reduction in action.
//
// Rendezvous is equivalent to leader election: once roles exist, the
// non-leaders wait at their nodes and the leader explores and finds
// each of them ("waiting for Mommy"). This example runs k agents on a
// random anonymous graph through the multi-agent engine, reporting the
// pairwise first-meeting matrix, and contrasts it with a roleless
// (fully symmetric) crew that provably cannot even pairwise-meet.
#include <cstdio>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "sim/multi_engine.hpp"
#include "support/saturating.hpp"
#include "support/table.hpp"

int main() {
  namespace families = rdv::graph::families;
  using rdv::sim::AgentProgram;
  using rdv::sim::AgentSpec;
  using rdv::sim::Mailbox;
  using rdv::sim::Observation;
  using rdv::sim::Proc;

  const rdv::graph::Graph g = families::random_connected(12, 6, 42);
  const auto y_handle = rdv::cache::cached_uxs(g.size());
  const rdv::uxs::Uxs& y = *y_handle;

  AgentProgram waiter = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.wait(rdv::support::kRoundInfinity);
    }(mb);
  };
  AgentProgram leader = [&y](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, rdv::uxs::Uxs seq) -> Proc {
      Observation o = co_await mb2.move(0);
      for (std::uint64_t a : seq.terms()) {
        o = co_await mb2.move(
            static_cast<rdv::graph::Port>((*o.entry_port + a) % o.degree));
      }
      co_await mb2.wait(rdv::support::kRoundInfinity);
    }(mb, y);
  };

  std::vector<AgentSpec> specs;
  specs.push_back({leader, 0, 0});
  specs.push_back({waiter, 4, 1});
  specs.push_back({waiter, 7, 3});
  specs.push_back({waiter, 11, 0});

  rdv::sim::RunConfig config;
  config.max_rounds = 8 * (y.length() + 2);
  const auto r = rdv::sim::run_multi(g, specs, config);

  std::printf("waiting-for-Mommy on %s, %zu agents\n", g.name().c_str(),
              specs.size());
  rdv::support::Table table({"pair", "first meeting (absolute round)"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      const std::uint64_t m = r.meeting_of(i, j, specs.size());
      table.add_row(
          {std::to_string(i) + "-" + std::to_string(j),
           m == rdv::sim::kNever ? "never (both waiting)"
                                 : std::to_string(m)});
    }
  }
  std::printf("%s", table.to_markdown().c_str());
  std::printf("gathered=%d (waiters cannot gather without moving)\n\n",
              r.gathered);

  // Roleless contrast: three identical movers on an oriented ring stay
  // in perfect rotational lockstep forever (the symmetry the paper's
  // delay mechanism exists to break).
  const rdv::graph::Graph ring = families::oriented_ring(6);
  AgentProgram mover = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      for (;;) co_await mb2.move(0);
    }(mb);
  };
  std::vector<AgentSpec> crew;
  for (const rdv::graph::Node start : {0u, 2u, 4u}) {
    crew.push_back({mover, start, 0});
  }
  rdv::sim::RunConfig ring_config;
  ring_config.max_rounds = 1000;
  const auto lockstep = rdv::sim::run_multi(ring, crew, ring_config);
  std::printf(
      "roleless symmetric crew on oriented_ring(6): gathered=%d, "
      "pairwise meetings=%s after %llu rounds\n",
      lockstep.gathered,
      lockstep.meeting_of(0, 1, 3) == rdv::sim::kNever ? "none" : "some",
      static_cast<unsigned long long>(lockstep.rounds_simulated));
  return 0;
}
