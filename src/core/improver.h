// The paper's iterative improvement scheme (Section 4): a sequence of
// trials, each admitting a fixed number of uphill moves at its beginning
// (to escape the current neighbourhood) and accepting only downhill moves
// afterwards. The best allocation seen is recorded; the search stops after
// a number of improvement-free trials or a trial cap.
//
// Like the annealer and the iterated local search, this is a thin
// acceptance policy over core/search_engine.h: moves are proposed,
// committed or rolled back in place, with the cost delta computed
// incrementally — no per-candidate Binding copies, no full cost
// evaluations inside the move loop. All of them, and allocate()'s
// restarts, own their engine through run_search below, which is also the
// one place a search is observed: it installs the invariant auditor that
// the check mode asks for.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "core/binding.h"
#include "core/cost.h"
#include "core/moves.h"
#include "util/thread_pool.h"

namespace salsa {

class SearchEngine;  // core/search_engine.h

/// How much self-checking a search adds to the checks it always runs
/// (the knob the SalsaCheck subsystem hangs off — see
/// src/analysis/auditor.h). Whatever the mode, run_search checks each
/// binding it hands on once: its start and its best (check_legal()).
///   kOff   — nothing more; allocate() also skips its re-check of the
///            winning binding (release hot paths that would otherwise pay
///            one more O(design) check_legal() per call);
///   kFinal — nothing more in the search; allocate() re-checks the winning
///            binding once. The default;
///   kAudit — every move transaction of the search runs under the
///            invariant auditor (binding verification, connection-index
///            rebuild cross-check, from-scratch cost comparison, undo
///            digests) at the auditor's size-based rate: every transaction
///            up to AuditorOptions::kExactUpToOps operations, every
///            ops/64-th above, so audited searches stay usable at 10k+
///            ops. Orders of magnitude slower than unchecked either way;
///            meant for tests, CI and bug hunts, not production runs;
///   kAuditFull — every transaction of any design pays the full battery.
///            O(design) per move — minutes per thousand moves at 10k ops —
///            but exact, for pinning down which transaction first corrupts
///            state.
enum class CheckMode : uint8_t { kOff, kFinal, kAudit, kAuditFull };

/// Default check mode: the SALSA_CHECK environment variable when set
/// ("0"/"off" → kOff, "final" → kFinal, "1"/"on"/"audit" → kAudit,
/// "full" → kAuditFull), otherwise kFinal. improve(), anneal(),
/// iterated_local_search() and allocate()'s default options read it, so
/// `SALSA_CHECK=1 ctest` replays every search in the test suite under the
/// (size-sampled) auditor without a rebuild; SALSA_CHECK=full forces the
/// exact every-transaction audit regardless of design size.
CheckMode default_check_mode();

/// Inert: nothing in src/ reads it. The end-to-end benchmark driver
/// (perfbench/e2e.cpp) still sets these fields, so they stay until the
/// next change to the benchmark deletes them together with those lines.
struct RetiredSpeculationConfig {
  int k = 1;
  Parallelism parallelism;
};

struct ImproveParams {
  MoveConfig moves = MoveConfig::salsa_default();
  int max_trials = 40;
  int moves_per_trial = 3000;
  int uphill_per_trial = 8;    ///< uphill acceptances admitted per trial
  int stop_after_stale = 3;    ///< improvement-free trials before stopping
  uint64_t seed = 1;
  /// Inert (see RetiredSpeculationConfig).
  RetiredSpeculationConfig speculation;
};

struct ImproveStats {
  int trials = 0;
  long attempted = 0;  ///< proposed moves (feasible instance found)
  long accepted = 0;   ///< applied and kept
  long uphill = 0;     ///< kept despite a cost increase
  long kicks = 0;      ///< cost-blind perturbation moves (ILS only)
  /// Per-move-kind attempted/accepted/delta breakdown (see
  /// io/report.h:search_stats_report for a rendering).
  std::array<MoveKindStats, kNumMoveKinds> by_kind{};

  ImproveStats& operator+=(const ImproveStats& o) {
    trials += o.trials;
    attempted += o.attempted;
    accepted += o.accepted;
    uphill += o.uphill;
    kicks += o.kicks;
    for (int k = 0; k < kNumMoveKinds; ++k)
      by_kind[static_cast<size_t>(k)] += o.by_kind[static_cast<size_t>(k)];
    return *this;
  }

  /// Exact comparison (the double delta sums included): stats must be
  /// bit-identical for every thread count, which is why the allocator sums
  /// per-restart stats in restart order rather than in completion order.
  friend bool operator==(const ImproveStats&, const ImproveStats&) = default;
};

struct ImproveResult {
  Binding best;
  CostBreakdown cost;
  ImproveStats stats;
};

/// The search seam: checks `start`, builds one SearchEngine over it, and
/// runs `policy` on it. Under CheckMode::kAudit and kAuditFull the engine
/// runs under an invariant auditor of its own, which throws on the first
/// violation. The policy leaves its best binding in the engine's checkpoint
/// and returns its counters; the seam returns that checkpoint, checked,
/// with its cost and the engine's per-kind stats.
ImproveResult run_search(
    const Binding& start, CheckMode check,
    const std::function<ImproveStats(SearchEngine&)>& policy);

/// Runs iterative improvement from `start` (which must be legal), checked
/// at default_check_mode().
ImproveResult improve(const Binding& start, const ImproveParams& params);

/// The trial loop alone, over a caller's engine whose binding equals its
/// checkpoint; leaves the best binding seen in the checkpoint. by_kind stays
/// empty (the engine keeps it).
ImproveStats improve(SearchEngine& eng, const ImproveParams& params);

}  // namespace salsa
