// T1 — Section 3 examples after Definition 3.1:
//   * oriented torus: Shrink(u,v) = dist(u,v) for every pair;
//   * symmetric double trees: Shrink = 1 for every symmetric pair,
//     at arbitrary distance.
//
// Each graph is one case whose kernel sweeps the graph's symmetric
// pairs on sweep::sweep_map: the outer case loop fans out on the
// pool AND the per-pair classification runs chunked on the same pool
// (work-assisting waits make the nesting safe); the view partition
// and the all-pairs Shrink table are resolved once per graph through
// the cache.
#include <algorithm>
#include <memory>

#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "graph/families/families.hpp"
#include "views/refinement.hpp"

namespace rdv::exp::scenarios {
namespace {

namespace families = rdv::graph::families;
using analysis::Stic;
using graph::Graph;

std::vector<std::string> graph_row(const Graph& g, const ExpContext& ctx) {
  const std::shared_ptr<const views::ViewClasses> classes =
      cache::cached_view_classes(g, ctx.cache());
  const std::shared_ptr<const views::AllPairsShrink> shrink =
      cache::cached_all_pairs_shrink(g, ctx.cache());
  std::vector<Stic> pairs;
  for (const auto& [u, v] : views::symmetric_pairs(g, *classes)) {
    pairs.push_back(Stic{u, v, 0});
  }
  // Kernel reads Shrink (cls.shrink) from the table on the pool; the
  // cheap BFS distance rides along in the merge loop below.
  const std::vector<analysis::ClassifiedStic> classified =
      sweep::sweep_map<analysis::ClassifiedStic>(
          pairs.size(),
          [&](std::size_t i) {
            return analysis::classify_stic(*classes, *shrink, pairs[i]);
          },
          ctx.sweep);

  std::uint32_t max_dist = 0;
  std::uint32_t max_shrink = 0;
  bool shrink_eq_dist = true;
  bool shrink_eq_one = true;
  for (const analysis::ClassifiedStic& cls : classified) {
    const std::uint32_t dist = graph::distance(g, cls.stic.u, cls.stic.v);
    const std::uint32_t s = cls.shrink;
    max_dist = std::max(max_dist, dist);
    max_shrink = std::max(max_shrink, s);
    if (s != dist) shrink_eq_dist = false;
    if (s != 1) shrink_eq_one = false;
  }
  return {g.name(),
          std::to_string(pairs.size()),
          std::to_string(max_dist),
          std::to_string(max_shrink),
          shrink_eq_dist ? "yes" : "no",
          shrink_eq_one ? "yes" : "no"};
}

}  // namespace

void register_t1(Registry& registry) {
  Experiment e;
  e.id = "t1_shrink_families";
  e.title = "T1 (Section 3 examples): Shrink across families";
  e.summary =
      "Shrink(u,v) over all symmetric pairs of tori, rings, and "
      "symmetric double trees";
  e.axes = {
      "graph: oriented tori, oriented rings, symmetric double trees",
      "per graph: every symmetric (u, v) pair at delay 0",
      "smoke: 2 graphs; quick: 6; full: +torus(5,4) +double_tree(2,4)"};
  e.headers = {"graph",      "sym pairs",
               "max distance", "max Shrink",
               "Shrink==dist everywhere?", "Shrink==1 everywhere?"};
  e.tags = {"table", "shrink", "feasibility"};
  e.cases = [](const ExpContext& ctx) {
    auto graphs = std::make_shared<std::vector<Graph>>();
    graphs->push_back(families::oriented_torus(3, 3));
    if (!ctx.smoke()) {
      graphs->push_back(families::oriented_torus(4, 3));
      graphs->push_back(families::oriented_ring(8));
    }
    graphs->push_back(families::symmetric_double_tree(2, 1));
    if (!ctx.smoke()) {
      graphs->push_back(families::symmetric_double_tree(2, 2));
      graphs->push_back(families::symmetric_double_tree(3, 2));
    }
    if (ctx.full()) {
      graphs->push_back(families::oriented_torus(5, 4));
      graphs->push_back(families::symmetric_double_tree(2, 4));
    }
    std::vector<CaseFn> cases;
    cases.reserve(graphs->size());
    for (std::size_t i = 0; i < graphs->size(); ++i) {
      cases.push_back([graphs, i](const ExpContext& run_ctx) {
        return graph_row((*graphs)[i], run_ctx);
      });
    }
    return cases;
  };
  e.notes = [](const ExpContext&) {
    return std::vector<std::string>{
        "Paper: tori cannot shrink (Shrink = dist); symmetric double "
        "trees always shrink to 1."};
  };
  registry.add(std::move(e));
}

}  // namespace rdv::exp::scenarios
