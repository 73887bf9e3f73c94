#include "core/ils.h"

#include "core/search_engine.h"
#include "core/verify.h"

namespace salsa {

namespace {

// Proposes run-wide candidate *i (stream derive_seed(seed, *i)) and bumps
// the counter; reset_to never rewinds it.
std::optional<double> propose_next(SearchEngine& eng, const IlsParams& params,
                                   uint64_t* i) {
  Rng r(derive_seed(params.seed, (*i)++));
  return eng.propose(params.moves.pick(r), r);
}

// Greedy descent: accept downhill/equal moves only.
void descend(SearchEngine& eng, const IlsParams& params, uint64_t* i,
             ImproveStats& stats) {
  eng.set_trace_aux("kick", 0);
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

}  // namespace

ImproveResult iterated_local_search(const Binding& start,
                                    const IlsParams& params) {
  check_legal(start);
  ImproveStats stats;

  SearchEngine eng(start);
  eng.set_trace(params.trace);
  eng.set_observer(params.observer);
  uint64_t i = 0;
  descend(eng, params, &i, stats);
  Binding best = eng.binding();
  double best_cost = eng.total();

  for (int round = 0; round < params.iterations; ++round) {
    ++stats.trials;
    eng.reset_to(best);
    // Kick: force a few random feasible moves, cost-blind. These are
    // perturbations of the incumbent, not acceptances of the descent
    // policy — they get their own counter.
    eng.set_trace_aux("kick", 1);
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
      best = eng.binding();
      best_cost = eng.total();
    }
  }
  stats.by_kind = eng.kind_stats();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

}  // namespace salsa
