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
// evaluations inside the move loop.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "core/binding.h"
#include "core/cost.h"
#include "core/moves.h"
#include "util/thread_pool.h"

namespace salsa {

class SearchObserver;  // core/search_engine.h

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
  /// Largest cost increase an uphill move may carry. Unbounded uphill jumps
  /// routinely undo more structure than the rest of the trial can rebuild
  /// (bench_ablation_search quantifies this); one-multiplexer-sized steps
  /// keep the perturbation local.
  double max_uphill_delta = 6.0;
  int stop_after_stale = 3;    ///< improvement-free trials before stopping
  uint64_t seed = 1;
  /// When set, the search streams one JSONL record per decided proposal
  /// (step, move kind, delta, accepted, plus the policy's control variable —
  /// remaining uphill budget / temperature / kick phase).
  std::ostream* trace = nullptr;
  /// Installed on the SearchEngine for the run — the checked mode's
  /// invariant auditor (src/analysis/auditor.h) hooks in here. Not owned;
  /// nullptr (the default) costs one null check per transaction.
  SearchObserver* observer = nullptr;
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

/// Runs iterative improvement from `start` (which must be legal).
ImproveResult improve(const Binding& start, const ImproveParams& params);

}  // namespace salsa
