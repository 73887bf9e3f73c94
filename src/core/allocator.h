// Top-level allocation API: constructive initial allocation followed by
// iterative improvement (with optional outer restarts — the paper notes
// multiple runs are sometimes needed due to the randomised search), then the
// mux-merging post-pass. This is the facade examples and benchmarks use.
#pragma once

#include "core/improver.h"
#include "core/initial.h"
#include "core/mux_merge.h"
#include "util/thread_pool.h"

namespace salsa {

struct AllocatorOptions {
  ImproveParams improve;
  InitialOptions initial;
  /// Independent restarts (fresh initial allocation + search seed); the best
  /// result wins. Seed streams are SplitMix64-derived per restart
  /// (util/rng.h:derive_seed), so restart r's trajectory is a function of
  /// (user seeds, r) only — never of which thread ran it.
  int restarts = 1;
  /// Inert: nothing in src/ reads it; every restart runs. The end-to-end
  /// benchmark (perfbench/e2e.cpp) still sets it, so it stays until the
  /// next change to the benchmark deletes it with that line.
  int restart_patience = 0;
  /// Restart-level parallelism. Results are byte-identical for every thread
  /// count: each restart owns its seed streams and SearchEngine, and the
  /// best-of reduction (lowest cost, then lowest restart index) plus the
  /// stats accumulation run in restart order on the calling thread.
  Parallelism parallelism;
  /// When the constructive start is contiguous, first converge within the
  /// traditional move set, then let the extended moves strip interconnect
  /// from that allocation. Disable for the pure-extended-search ablation.
  bool warm_start_traditional = true;
  /// Inert (see RetiredSpeculationConfig in core/improver.h).
  RetiredSpeculationConfig speculation;
  /// Self-checking level of every restart's search and of the winner
  /// (see CheckMode in core/improver.h). Defaults to the SALSA_CHECK
  /// environment variable, else kFinal.
  CheckMode checked = default_check_mode();
};

struct AllocationResult {
  Binding binding;
  CostBreakdown cost;      ///< point-to-point cost before mux merging
  MuxMergeResult merging;  ///< greedy mux-merge outcome
  /// Accumulated over restarts: each restart's stats cover its warm and
  /// extended phases (one engine, so by_kind counts both), and the
  /// per-restart totals are summed in restart order (deterministic under
  /// any parallelism).
  ImproveStats stats;
};

/// Allocates the problem with the extended (SALSA) binding model.
AllocationResult allocate(const AllocProblem& prob,
                          const AllocatorOptions& opts = {});

}  // namespace salsa
