#include "core/allocator.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/auditor.h"
#include "analysis/digest.h"
#include "core/search_engine.h"
#include "core/verify.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

namespace {

// One independent restart: constructive start (plus the optional
// traditional-model warm phase), then the extended-model improvement, both
// on one SearchEngine. The stats cover this restart only, so the caller can
// sum per-restart totals in restart order — the same value whichever thread
// ran the restart, and whichever restart finished first.
ImproveResult run_restart(const AllocProblem& prob,
                          const AllocatorOptions& opts, int r) {
  // Each restart draws its seeds from SplitMix64 streams rooted at the user
  // seeds (even streams: placement, odd streams: search), replacing the old
  // additive scheme whose streams collided for nearby user seeds.
  const uint64_t rr = static_cast<uint64_t>(r);
  InitialOptions init = opts.initial;
  init.seed = derive_seed(opts.initial.seed, 2 * rr);
  ImproveParams params = opts.improve;
  params.seed = derive_seed(opts.improve.seed, 2 * rr + 1);

  // Checked mode: this restart's engine runs under its own invariant
  // auditor (restarts may run on different threads; the auditor is
  // engine-local state, so each restart owns one).
  std::optional<InvariantAuditor> auditor;
  if (opts.checked == CheckMode::kAudit ||
      opts.checked == CheckMode::kAuditFull) {
    AuditorOptions aopts{.every = opts.audit_every};
    // kAuditFull: exact mode — defeat the large-design sampling so every
    // transaction pays the full battery regardless of size.
    if (opts.checked == CheckMode::kAuditFull) aopts.sample_threshold_ops = 0;
    auditor.emplace(aopts);
    params.observer = &*auditor;
  }

  // The constructive start (contiguous-first, splitting only when forced).
  // For the warm start, actively look for a fully contiguous placement
  // across a few orders before settling for a split one.
  Binding start = initial_allocation(prob, init);
  if (opts.warm_start_traditional && !start.is_traditional()) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      try {
        InitialOptions strict = init;
        strict.allow_splits = false;
        strict.seed = derive_seed(init.seed, 1 + static_cast<uint64_t>(attempt));
        start = initial_allocation(prob, strict);
        break;
      } catch (const Error&) {
        // no contiguous placement under this order; keep trying
      }
    }
  }
  auto phases = [&](SearchEngine& eng) {
    ImproveStats stats;
    if (opts.warm_start_traditional && start.is_traditional()) {
      // Converge within the traditional model first — the extended moves
      // then only have to *remove* interconnect from a good contiguous
      // allocation (value segments, copies and pass-throughs strictly add
      // freedom, so this warm start never hurts the final result). The
      // extended phase starts from the warm best, restored in place.
      ImproveParams warm = params;
      warm.moves = MoveConfig::traditional();
      warm.seed = params.seed ^ 0x5A15Au;
      stats += improve(eng, warm);
      eng.restore_checkpoint();
      check_legal(eng.binding());
    }
    stats += improve(eng, params);
    return stats;
  };
  return run_search(start, params.trace, params.observer, phases);
}

}  // namespace

AllocationResult allocate(const AllocProblem& prob,
                          const AllocatorOptions& opts) {
  SALSA_CHECK_MSG(opts.restarts >= 1, "allocate needs at least one restart");
  Parallelism par = opts.parallelism;
  // A traced search streams JSONL records; interleaving restarts would
  // corrupt the stream, so tracing pins the run to the calling thread.
  if (opts.improve.trace != nullptr) par = Parallelism::sequential_only();

  const int patience = opts.restart_patience;
  std::vector<ImproveResult> outcomes;
  if (patience <= 0 || opts.restarts <= patience) {
    outcomes = parallel_map(par, opts.restarts,
                            [&](int r) { return run_restart(prob, opts, r); });
  } else {
    // Early stopping, deterministically: restarts are computed in
    // thread-sized waves, but the stop rule — cut after the first index r
    // whose distance from the earliest best index reaches `patience` — is
    // evaluated over outcomes in restart-index order and every outcome past
    // the cut is dropped. The retained prefix (hence the winner and the
    // stats) is therefore a function of the restart outcomes alone, never
    // of the wave width or which thread ran what; only the amount of
    // discarded surplus work varies with the thread count.
    const int wave = par.resolve();
    size_t best = 0;
    bool stop = false;
    while (!stop && static_cast<int>(outcomes.size()) < opts.restarts) {
      const int base = static_cast<int>(outcomes.size());
      const int count = std::min(wave, opts.restarts - base);
      std::vector<ImproveResult> batch = parallel_map(
          par, count, [&](int i) { return run_restart(prob, opts, base + i); });
      for (ImproveResult& o : batch) {
        outcomes.push_back(std::move(o));
        const size_t r = outcomes.size() - 1;
        if (outcomes[r].cost.total < outcomes[best].cost.total) best = r;
        if (r - best >= static_cast<size_t>(patience)) {
          stop = true;
          break;
        }
      }
    }
  }

  // Deterministic reduction in restart order: stats sum index by index; the
  // winner is the lowest cost, ties broken by the lowest restart index
  // (strict < keeps the earliest of equals).
  ImproveStats total;
  size_t best = 0;
  if (opts.restart_digests) {
    opts.restart_digests->clear();
    opts.restart_digests->reserve(outcomes.size());
  }
  for (size_t r = 0; r < outcomes.size(); ++r) {
    total += outcomes[r].stats;
    if (opts.restart_digests)
      opts.restart_digests->push_back(digest_binding(outcomes[r].best));
    if (outcomes[r].cost.total < outcomes[best].cost.total) best = r;
  }
  ImproveResult& win = outcomes[best];
  // The restart's search checked its best already; kOff skips this second
  // O(design) check of the winner (see CheckMode).
  if (opts.checked != CheckMode::kOff) check_legal(win.best);
  AllocationResult out{std::move(win.best), win.cost, {}, total};
  out.merging = merge_muxes(out.binding);
  return out;
}

}  // namespace salsa
