#include "core/improver.h"

#include "core/search_engine.h"
#include "core/verify.h"

namespace salsa {

ImproveResult improve(const Binding& start, const ImproveParams& params) {
  check_legal(start);

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  Binding best = start;
  double best_cost = eng.total();

  ImproveStats stats;
  // Candidate i of the run draws from its own stream derive_seed(seed, i).
  // The counter runs on across reset_to, so a restart from the best
  // binding never replays the candidates that led away from it.
  uint64_t i = 0;
  int stale = 0;
  for (int trial = 0; trial < params.max_trials; ++trial) {
    ++stats.trials;
    int uphill_left = params.uphill_per_trial;
    bool improved = false;
    for (int m = 0; m < params.moves_per_trial; ++m) {
      eng.set_trace_aux("uphill_left", uphill_left);
      Rng r(derive_seed(params.seed, i++));
      const auto delta = eng.propose(params.moves.pick(r), r);
      if (!delta) continue;
      ++stats.attempted;
      bool accept = *delta <= 0;
      if (!accept && uphill_left > 0 && *delta <= params.max_uphill_delta) {
        accept = true;
        --uphill_left;
        ++stats.uphill;
      }
      if (!accept) {
        eng.rollback();
        continue;
      }
      eng.commit();
      ++stats.accepted;
      if (eng.total() < best_cost - 1e-9) {
        best = eng.binding();
        best_cost = eng.total();
        improved = true;
      }
    }
    if (improved) {
      stale = 0;
    } else {
      // Return to the best known allocation before exploring again.
      eng.reset_to(best);
      if (++stale >= params.stop_after_stale) break;
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
