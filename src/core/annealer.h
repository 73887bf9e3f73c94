// Simulated-annealing driver over the same move set, for the Section 4
// ablation: the authors report that annealing "produced poor results and
// seldom converged on a good solution" for this problem, which motivated
// the trial-based iterative improvement scheme. bench_ablation_search
// reproduces that comparison.
#pragma once

#include "core/improver.h"

namespace salsa {

struct AnnealParams {
  MoveConfig moves = MoveConfig::salsa_default();
  double initial_temp = 30.0;
  double cooling = 0.95;       ///< geometric factor per temperature level
  int moves_per_temp = 3000;
  int num_temps = 40;
  uint64_t seed = 1;
};

/// Runs simulated annealing from `start` (Metropolis acceptance), checked
/// at default_check_mode(). Returns the best binding seen, its cost, and
/// acceptance statistics.
ImproveResult anneal(const Binding& start, const AnnealParams& params);

}  // namespace salsa
