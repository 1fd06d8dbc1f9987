#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/stics.hpp"

/// Cross-validation of the feasibility characterization
/// (Corollary 3.1) against actual simulations — experiment T2.
namespace rdv::analysis {

struct SticCheck {
  ClassifiedStic cls;
  /// The simulation's verdict: whether the agents met within the round
  /// cap, the rendezvous time from the later agent's start (when met),
  /// and a program error, if one ended the run.
  bool met = false;
  std::uint64_t meet_from_later_start = 0;
  std::string error;
  /// True when the simulation agrees with the characterization:
  /// a feasible STIC met within the round cap, an infeasible one did
  /// not meet (the cap cannot *prove* infeasibility — optimal_search
  /// can — but any meet on a predicted-infeasible STIC is a hard
  /// inconsistency).
  bool consistent = false;
};

struct SweepSummary {
  std::vector<SticCheck> checks;
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t inconsistent = 0;
};

}  // namespace rdv::analysis
