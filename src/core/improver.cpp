#include "core/improver.h"

#include "core/search_engine.h"
#include "core/verify.h"

namespace salsa {

ImproveResult run_search(
    const Binding& start, std::ostream* trace, SearchObserver* observer,
    const std::function<ImproveStats(SearchEngine&)>& policy) {
  check_legal(start);
  // The engine's checkpoint holds the best binding (initially `start`).
  SearchEngine eng(start);
  eng.set_trace(trace);
  eng.set_observer(observer);
  ImproveStats stats = policy(eng);
  stats.by_kind = eng.kind_stats();
  Binding best = std::move(eng).take_checkpoint();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

ImproveResult improve(const Binding& start, const ImproveParams& params) {
  return run_search(start, params.trace, params.observer,
                    [&](SearchEngine& eng) { return improve(eng, params); });
}

ImproveStats improve(SearchEngine& eng, const ImproveParams& params) {
  // Largest cost increase an uphill move may carry. Unbounded uphill jumps
  // routinely undo more structure than the rest of the trial can rebuild;
  // steps below one multiplexer's weight keep the perturbation local.
  constexpr double kMaxUphillDelta = 6.0;
  SALSA_DCHECK(eng.dirty_units() == 0);
  double best_cost = eng.total();

  ImproveStats stats;
  // Candidate i of the run draws from its own stream derive_seed(seed, i).
  // The counter runs on across restore_checkpoint, so a restart from the
  // best binding never replays the candidates that led away from it.
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
      if (!accept && uphill_left > 0 && *delta <= kMaxUphillDelta) {
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
        eng.checkpoint();
        best_cost = eng.total();
        improved = true;
      }
    }
    if (improved) {
      stale = 0;
    } else {
      // Return to the best known allocation before exploring again.
      eng.restore_checkpoint();
      if (++stale >= params.stop_after_stale) break;
    }
  }
  return stats;
}

}  // namespace salsa
