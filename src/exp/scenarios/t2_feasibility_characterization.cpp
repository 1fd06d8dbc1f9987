// T2 — Corollary 3.1: a STIC [(u,v), delta] is feasible iff the nodes
// are nonsymmetric, or symmetric with delta >= Shrink(u, v).
// Cross-checks the predicate against UniversalRV over every ordered
// STIC of each graph: feasibility_sweep records one solo walk per view
// class and decides each STIC by merging two walks, verdicts equal to a
// full two-agent simulation's. The outer case loop runs on the pool and
// both sweeps inside a case nest on it (work-assisting waits).
#include <memory>

#include "core/universal_rv.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "graph/families/families.hpp"

namespace rdv::exp::scenarios {
namespace {

namespace families = rdv::graph::families;
using graph::Graph;

struct Case {
  Graph g;
  std::uint64_t max_delay;
  std::uint64_t max_phases;
  std::uint64_t cap;
};

}  // namespace

void register_t2(Registry& registry) {
  Experiment e;
  e.id = "t2_feasibility_characterization";
  e.title =
      "T2 (Corollary 3.1): feasibility characterization vs UniversalRV";
  e.summary =
      "Corollary 3.1 predicate vs exhaustive UniversalRV simulation "
      "over every ordered STIC";
  e.axes = {
      "graph x max_delay: every ordered STIC with delays 0..max_delay",
      "smoke: two-node graph; quick: 3 graphs; full: +ring(4) "
      "+double_tree(1,1)"};
  e.headers = {"graph",      "STICs",      "feasible",
               "infeasible", "sim agrees", "inconsistencies"};
  e.tags = {"table", "feasibility", "universal"};
  e.cases = [](const ExpContext& ctx) {
    auto cases = std::make_shared<std::vector<Case>>();
    cases->push_back({families::two_node_graph(), 2, 60, 1u << 22});
    if (!ctx.smoke()) {
      cases->push_back({families::oriented_ring(3), 2, 120, 1u << 23});
      cases->push_back({families::path_graph(3), 1, 120, 1u << 23});
    }
    if (ctx.full()) {
      cases->push_back({families::oriented_ring(4), 2, 150, 1u << 24});
      cases->push_back(
          {families::symmetric_double_tree(1, 1), 1, 150, 1u << 24});
    }
    std::vector<CaseFn> fns;
    fns.reserve(cases->size());
    for (std::size_t i = 0; i < cases->size(); ++i) {
      fns.push_back([cases, i](const ExpContext& run_ctx) {
        const Case& c = (*cases)[i];
        core::UniversalOptions options;
        options.max_phases = c.max_phases;
        sim::RunConfig config;
        config.max_rounds = c.cap;
        const analysis::SweepSummary summary = sweep::feasibility_sweep(
            c.g, c.max_delay, core::universal_rv_program(options), config,
            run_ctx.sweep);
        return std::vector<std::string>{
            c.g.name(),
            std::to_string(summary.checks.size()),
            std::to_string(summary.feasible),
            std::to_string(summary.infeasible),
            summary.inconsistent == 0 ? "yes" : "NO",
            std::to_string(summary.inconsistent)};
      });
    }
    return fns;
  };
  e.notes = [](const ExpContext&) {
    return std::vector<std::string>{
        "Every feasible STIC met; no infeasible STIC met."};
  };
  registry.add(std::move(e));
}

}  // namespace rdv::exp::scenarios
