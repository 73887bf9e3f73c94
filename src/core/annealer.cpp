#include "core/annealer.h"

#include <cmath>

#include "core/search_engine.h"

namespace salsa {

namespace {

// The Metropolis loop over the seam's engine.
ImproveStats anneal(SearchEngine& eng, const AnnealParams& params) {
  double best_cost = eng.total();

  ImproveStats stats;
  uint64_t i = 0;  // candidate counter: stream derive_seed(seed, i)
  double temp = params.initial_temp;
  for (int level = 0; level < params.num_temps; ++level, temp *= params.cooling) {
    ++stats.trials;
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
        eng.checkpoint();
        best_cost = eng.total();
      }
    }
  }
  return stats;
}

}  // namespace

ImproveResult anneal(const Binding& start, const AnnealParams& params) {
  return run_search(start, default_check_mode(),
                    [&](SearchEngine& eng) { return anneal(eng, params); });
}

}  // namespace salsa
