#include "core/ils.h"

#include "core/search_engine.h"

namespace salsa {

namespace {

// Proposes run-wide candidate *i (stream derive_seed(seed, *i)) and bumps
// the counter; restore_checkpoint never rewinds it.
std::optional<double> propose_next(SearchEngine& eng, const IlsParams& params,
                                   uint64_t* i) {
  Rng r(derive_seed(params.seed, (*i)++));
  return eng.propose(params.moves.pick(r), r);
}

// Greedy descent: accept downhill/equal moves only.
void descend(SearchEngine& eng, const IlsParams& params, uint64_t* i,
             ImproveStats& stats) {
  for (int m = 0; m < params.descent_moves; ++m) {
    const auto delta = propose_next(eng, params, i);
    if (!delta) continue;
    ++stats.attempted;
    if (*delta <= 0) {
      eng.commit();
      ++stats.accepted;
    } else {
      eng.rollback();
    }
  }
}

// Kick + descent rounds over the seam's engine.
ImproveStats iterated_local_search(SearchEngine& eng, const IlsParams& params) {
  ImproveStats stats;
  uint64_t i = 0;
  descend(eng, params, &i, stats);
  // The engine's checkpoint holds the incumbent (best) binding.
  eng.checkpoint();
  double best_cost = eng.total();

  for (int round = 0; round < params.iterations; ++round) {
    ++stats.trials;
    eng.restore_checkpoint();
    // Kick: force a few random feasible moves, cost-blind. These are
    // perturbations of the incumbent, not acceptances of the descent
    // policy — they get their own counter.
    int kicked = 0;
    for (int k = 0; k < params.kick_moves * 4 && kicked < params.kick_moves;
         ++k) {
      if (!propose_next(eng, params, &i)) continue;
      eng.commit();
      ++kicked;
      ++stats.kicks;
    }
    descend(eng, params, &i, stats);
    if (eng.total() < best_cost - 1e-9) {
      eng.checkpoint();
      best_cost = eng.total();
    }
  }
  return stats;
}

}  // namespace

ImproveResult iterated_local_search(const Binding& start,
                                    const IlsParams& params) {
  return run_search(start, default_check_mode(), [&](SearchEngine& eng) {
    return iterated_local_search(eng, params);
  });
}

}  // namespace salsa
