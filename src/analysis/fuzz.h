// Move fuzzer: seeded random transaction sequences driven through a
// SearchEngine under the SalsaCheck invariant auditor. Each iteration picks
// a move kind (uniformly by default, so the rare value-level moves and the
// frequently-infeasible ones get exercised — infeasible proposals are the
// "illegal" sequences and must leave no trace), proposes it, and commits or
// rolls back by a coin flip. Every audited transaction pays the full
// check battery (see analysis/auditor.h); a violation is reported with the
// reproducing seed and, when an artifact directory is configured, a JSON
// dump of the binding the engine held when the audit fired — the artifact
// CI uploads on failure.
//
// Deterministic by construction: (problem, FuzzParams) fully determine the
// trajectory, so a CI failure replays locally from the printed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "core/resources.h"

namespace salsa {

struct FuzzParams {
  uint64_t seed = 1;
  /// Feasible transactions to drive (commits + rollbacks).
  long transactions = 10000;
  double commit_prob = 0.5;
  /// Pick move kinds uniformly instead of by weight (hits every kind,
  /// including ones a tuned search would rarely draw). When false, kinds
  /// are drawn by MoveConfig::salsa_default() weight.
  bool uniform_kinds = true;
  AuditorOptions audit;
  /// Give up after transactions * this many proposals (feasibility can be
  /// scarce on tight problems).
  long proposal_cap_factor = 50;
  /// Every this many transactions, restore the engine's checkpoint of the
  /// best binding seen (exercises restore_checkpoint under audit); 0
  /// disables.
  long reset_every = 2500;
  /// On violation, write "<name>-seed<seed>.json" (seed, progress, error,
  /// binding dump) into this directory. Empty = no artifact.
  std::string artifact_dir;
  std::string name = "fuzz";
  /// Mutation testing (0 = off): deliberately break the undo of the Nth
  /// rollback (SearchEngine::inject_broken_undo_for_test). The auditor's
  /// digest check must catch it — the regression proving the audit wall
  /// actually detects silent state drift (see DESIGN.md).
  long inject_broken_undo_at = 0;
};

struct FuzzResult {
  bool ok = true;
  std::string failure;        ///< auditor/engine error message when !ok
  std::string artifact_path;  ///< written artifact, empty if none
  long transactions = 0;      ///< feasible transactions driven
  long proposals = 0;
  long commits = 0;
  long rollbacks = 0;
  long infeasible = 0;
  AuditorStats audit;
};

/// Runs the fuzzer on one problem. Does not throw on audit violations —
/// they are reported through FuzzResult (and as an artifact file).
FuzzResult run_move_fuzz(const AllocProblem& prob, const FuzzParams& params);

struct SegmentDiffResult {
  bool ok = true;
  std::string failure;    ///< first divergence / engine error when !ok
  long transactions = 0;  ///< feasible transactions compared
  long commits = 0;       ///< transactions that committed on both engines
  long windowed = 0;      ///< transactions that took a non-whole window
  /// Index (0-based transaction count) of the first divergence; -1 = none.
  long divergence = -1;
};

/// Window-vs-whole differential for segment-windowed transactions
/// (salsa_audit --segment): drives two engines — one with segment windows
/// on (the default), one forced to whole-storage walks via
/// SearchEngine::set_segment_windows(false) — through the identical
/// proposal/commit/rollback stream and cross-checks after every
/// transaction: the proposal deltas must be bit-identical, the cost
/// breakdowns must match integer for integer, committed bindings must
/// digest-match, and the windowed engine's connection index must match a
/// from-scratch rebuild. This is the proof obligation of the windowed
/// claim-staging walk: identical cost integers, not merely close ones.
SegmentDiffResult run_segment_diff(const AllocProblem& prob,
                                   const FuzzParams& params);

/// A named standard fuzz target: the benchmark CDFG built by the paper's
/// problem recipe (make_problem, two spare registers). Valid names: "ewf"
/// (17 steps), "dct" (9 steps), "random" (24 ops, 12 steps).
class FuzzTarget {
 public:
  /// Throws salsa::Error for an unknown name.
  explicit FuzzTarget(const std::string& name);

  const AllocProblem& prob() const { return *bundle_.problem; }
  const std::string& name() const { return name_; }

  /// All valid target names, in reporting order.
  static const std::vector<std::string>& names();

 private:
  std::string name_;
  ProblemBundle bundle_;
};

}  // namespace salsa
