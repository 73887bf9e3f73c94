#include "core/annealer.h"

#include <cmath>

#include "core/search_engine.h"
#include "core/verify.h"

namespace salsa {

ImproveResult anneal(const Binding& start, const AnnealParams& params) {
  check_legal(start);

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  Binding best = start;
  double best_cost = eng.total();

  ImproveStats stats;
  uint64_t i = 0;  // candidate counter: stream derive_seed(seed, i)
  double temp = params.initial_temp;
  for (int level = 0; level < params.num_temps; ++level, temp *= params.cooling) {
    ++stats.trials;
    eng.set_trace_aux("temp", temp);
    for (int m = 0; m < params.moves_per_temp; ++m) {
      Rng r(derive_seed(params.seed, i++));
      const auto delta = eng.propose(params.moves.pick(r), r);
      if (!delta) continue;
      ++stats.attempted;
      bool accept = *delta <= 0;
      // The Metropolis draw continues the candidate's own stream past the
      // proposal draws.
      if (!accept && temp > 1e-9)
        accept = r.uniform01() < std::exp(-*delta / temp);
      if (!accept) {
        eng.rollback();
        continue;
      }
      eng.commit();
      ++stats.accepted;
      if (*delta > 0) ++stats.uphill;
      if (eng.total() < best_cost - 1e-9) {
        best = eng.binding();
        best_cost = eng.total();
      }
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
