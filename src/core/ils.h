// Iterated local search — the paper's second "future work" item ("the
// iterative improvement scheme could be replaced by a more powerful
// approach"). Alternates full greedy descents with small random kicks from
// the incumbent optimum, which bench_ablation_search shows is a stronger
// use of uphill motion than either per-trial uphill quotas or annealing on
// this landscape.
#pragma once

#include "core/improver.h"

namespace salsa {

struct IlsParams {
  MoveConfig moves = MoveConfig::salsa_default();
  int iterations = 30;       ///< kick + descent rounds
  int kick_moves = 6;        ///< forced random moves per kick
  int descent_moves = 4000;  ///< proposals per descent
  uint64_t seed = 1;
};

/// Runs iterated local search from `start` (must be legal), checked at
/// default_check_mode(). Returns the best binding found, with stats
/// accumulated over all rounds. Kick moves are reported in their own
/// counter (stats.kicks) — they are cost-blind perturbations, not uphill
/// acceptances of the descent policy.
ImproveResult iterated_local_search(const Binding& start,
                                    const IlsParams& params);

}  // namespace salsa
