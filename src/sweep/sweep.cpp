#include "sweep/sweep.hpp"

#include <memory>

#include "cache/artifact_cache.hpp"
#include "views/refinement.hpp"

namespace rdv::sweep {

analysis::SweepSummary feasibility_sweep(const graph::Graph& g,
                                         std::uint64_t max_delay,
                                         const sim::AgentProgram& program,
                                         const sim::RunConfig& run_config,
                                         const SweepConfig& sweep_config) {
  // Resolved through the artifact cache: repeated sweeps over the same
  // graph (and concurrent sweeps on other threads) share one partition
  // refinement. The shared_ptr keeps the artifact alive past eviction.
  const std::shared_ptr<const views::ViewClasses> classes =
      detail::effective_cache(sweep_config).view_classes(g);
  const std::vector<analysis::Stic> stics =
      analysis::enumerate_stics(g, max_delay);
  analysis::SweepSummary summary;
  summary.checks = sweep_map<analysis::SticCheck>(
      stics.size(),
      [&](std::size_t i) {
        return analysis::verify_stic(g, *classes, stics[i], program,
                                     run_config);
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
