#include "core/improver.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/auditor.h"
#include "core/search_engine.h"
#include "core/verify.h"
#include "util/diagnostics.h"

namespace salsa {

CheckMode default_check_mode() {
  static const CheckMode mode = [] {
    const char* env = std::getenv("SALSA_CHECK");
    if (env == nullptr) return CheckMode::kFinal;
    const std::string v(env);
    if (v == "0" || v == "off") return CheckMode::kOff;
    if (v == "final") return CheckMode::kFinal;
    if (v == "1" || v == "on" || v == "audit") return CheckMode::kAudit;
    if (v == "full") return CheckMode::kAuditFull;
    fail("SALSA_CHECK must be 0/off, final, or 1/on/audit/full; got '" + v +
         "'");
  }();
  return mode;
}

ImproveResult run_search(
    const Binding& start, CheckMode check,
    const std::function<ImproveStats(SearchEngine&)>& policy) {
  check_legal(start);
  // The engine's checkpoint holds the best binding (initially `start`).
  SearchEngine eng(start);
  // The auditor is engine-local state, so searches running on different
  // threads each own one. every = 0 is the size-based rate, 1 every
  // transaction.
  std::optional<InvariantAuditor> auditor;
  if (check == CheckMode::kAudit || check == CheckMode::kAuditFull) {
    auditor.emplace(
        AuditorOptions{.every = check == CheckMode::kAuditFull ? 1 : 0});
    eng.set_observer(&*auditor);
  }
  ImproveStats stats = policy(eng);
  stats.by_kind = eng.kind_stats();
  Binding best = std::move(eng).take_checkpoint();
  check_legal(best);
  CostBreakdown final_cost = evaluate_cost(best);
  return ImproveResult{std::move(best), final_cost, stats};
}

ImproveResult improve(const Binding& start, const ImproveParams& params) {
  return run_search(start, default_check_mode(),
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
