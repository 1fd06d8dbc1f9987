#include "sweep/sweep.hpp"

#include <memory>

#include "cache/artifact_cache.hpp"
#include "sim/multi_engine.hpp"
#include "views/refinement.hpp"

namespace rdv::sweep {

analysis::SweepSummary feasibility_sweep(const graph::Graph& g,
                                         std::uint64_t max_delay,
                                         const sim::AgentProgram& program,
                                         const sim::RunConfig& run_config,
                                         const SweepConfig& sweep_config) {
  // Resolved through the artifact cache: repeated sweeps over the same
  // graph (and concurrent sweeps on other threads) share one refinement
  // and Shrink table, kept alive past eviction by the shared_ptrs.
  cache::ArtifactCache& cache = detail::effective_cache(sweep_config);
  const std::shared_ptr<const views::ViewClasses> classes =
      cache.view_classes(g);
  const std::shared_ptr<const views::AllPairsShrink> shrink =
      cache.all_pairs_shrink(g);
  // One walk per view class, from its first node (class ids are dense,
  // in order of first occurrence).
  const std::vector<std::uint32_t>& class_of = classes->class_of;
  std::vector<graph::Node> firsts;
  for (graph::Node v = 0; v < g.size(); ++v) {
    if (class_of[v] == firsts.size()) firsts.push_back(v);
  }
  const std::vector<sim::SoloWalk> walks = sweep_map<sim::SoloWalk>(
      firsts.size(),
      [&](std::size_t c) {
        return sim::record_walk(g, program, firsts[c], run_config);
      },
      sweep_config);

  const sim::SuccessorTable successors(g);
  const std::vector<analysis::Stic> stics =
      analysis::enumerate_stics(g, max_delay);
  analysis::SweepSummary summary;
  summary.checks = sweep_map<analysis::SticCheck>(
      stics.size(),
      [&](std::size_t i) {
        const analysis::Stic& s = stics[i];
        const analysis::ClassifiedStic cls =
            analysis::classify_stic(*classes, *shrink, s);
        sim::WalkMerge run =
            sim::merge_walks(successors, walks[class_of[s.u]], s.u,
                             walks[class_of[s.v]], s.v, s.delay,
                             run_config.max_rounds);
        const bool consistent = run.error.empty() && run.met == cls.feasible;
        return analysis::SticCheck{cls, run.met, run.meet_from_later_start,
                                   std::move(run.error), consistent};
      },
      sweep_config);
  for (const analysis::SticCheck& check : summary.checks) {
    if (check.cls.feasible) {
      ++summary.feasible;
    } else {
      ++summary.infeasible;
    }
    if (!check.consistent) ++summary.inconsistent;
  }
  return summary;
}

}  // namespace rdv::sweep
